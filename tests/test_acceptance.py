"""Acceptance gate: every criterion runs at its stated tolerance.

Each test prints one PASS line (visible with pytest -s or in the
captured output summary).  Every runtime bound is asserted on the
pure-Python/numpy kernels.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from law_oracle import ControllerGains, lyapunov_delta, step_response

from chaoslink.bitcodec import FrameSpec, correlate, decide, spread
from chaoslink.cli import main as cli_main
from chaoslink.core import LogisticParams, iterate, lyapunov_exponent, step
from chaoslink.fixedpoint import FixedParams, fx_run_sync
from chaoslink.hopper import build_default_table
from chaoslink.simkit import (
    ScenarioConfig,
    run_hop_session,
    run_sync_session,
    run_transmit_session,
    run_digital_session,
)

import itertools


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # run each kernel once before any timed section, so none times a first call
    iterate(LogisticParams(3.7), 0.1, 8)
    lyapunov_exponent(LogisticParams(3.7), 0.1, 10, burn_in=2)
    run_sync_session(ScenarioConfig(steps=30, settle=5))
    run_transmit_session(
        ScenarioConfig(source="bernoulli", seed=0, steps=64, settle=8)
    )
    fx_run_sync(FixedParams.from_real(3.7, 0.5), 122, -1024, 8)
    # a one-session hop run also builds the cached channel table
    run_hop_session(ScenarioConfig(source="bernoulli", seed=0, sessions=1, active_steps=8))


def _timed(label, limit, fn):
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    print(f"PASS {label} ({elapsed:.3f}s)")
    assert elapsed < limit, f"{label}: {elapsed:.3f}s exceeds {limit}s"
    return result


def test_criterion_1_exact_contraction_identity():
    def check():
        rng = np.random.default_rng(42)
        n = 100_000
        mu = rng.uniform(0.01, 4.0, n)
        k = rng.uniform(0.01, 100.0, n)
        rho = rng.uniform(-2.0, 2.0, n)
        y = rng.uniform(-10.0, 10.0, n) * k
        d = rng.uniform(0.001, 0.999, n) * k
        e = y - d
        u = (mu * (e + 2.0 * d - k) + rho * k) * e / k
        lhs = mu * y * (1.0 - y / k) + u - mu * d * (1.0 - d / k)
        rhs = rho * e
        scale = np.maximum.reduce([np.abs(mu * y * y / k), np.abs(rhs),
                                   np.ones(n)])
        assert np.all(np.abs(lhs - rhs) <= 1e-9 * scale)

    _timed("criterion 1: contraction identity over 1e5 tuples", 1.0, check)


def test_criterion_2_idle_sync_reproduction():
    def check():
        trace, metrics = run_sync_session(ScenarioConfig())
        errors = trace.column("e")
        for n, e in enumerate(errors):
            assert abs(e - 0.5**n * -1.1) <= 1e-9 * max(n, 1)
        assert metrics.sync_step is not None and metrics.sync_step <= 25
        assert all(abs(e) < 1e-6 for e in errors[25:])
        assert abs(errors[50]) < 1e-13

    _timed("criterion 2: idle synchronization run", 0.1, check)


def test_criterion_3_lyapunov_classification():
    def check():
        rng = np.random.default_rng(3)
        rho = rng.uniform(-1.0, 1.0, 10_000)
        e = rng.uniform(-100.0, 100.0, 10_000)
        assert np.all(-(e**2) * (1.0 - rho**2) <= 0.0)
        assert np.all(lyapunov_delta(rho, e) <= 0.0)
        # rho = 1.2: error grows by exactly the gain each step
        g = ControllerGains(rho=1.2, params=LogisticParams(3.7))
        x, y = 0.1, -1.0
        e_prev = y - x
        for _ in range(30):
            y = step_response(g, y, x)
            x = step(g.params, x)
            assert (y - x) / e_prev == pytest.approx(1.2, rel=1e-9)
            e_prev = y - x
        # rho = 1: error is constant
        g1 = ControllerGains(rho=1.0, params=LogisticParams(3.7))
        x, y = 0.1, -1.0
        for _ in range(100):
            y = step_response(g1, y, x)
            x = step(g1.params, x)
        assert (y - x) == pytest.approx(-1.1, rel=1e-9)

    _timed("criterion 3: Lyapunov classification and gain regimes", 1.0, check)


def test_criterion_4_degenerate_one_step_sync():
    def check():
        rng = np.random.default_rng(4)
        p = LogisticParams(3.7)
        for x in rng.uniform(0.001, 0.999, 1000):
            assert abs(step(p, x) - step(p, 1.0 - x)) <= 1e-12

    _timed("criterion 4: mirror-pair one-step synchronization", 0.1, check)


FROZEN_TRANSMIT = ScenarioConfig(
    source="bernoulli", source_p=0.5, seed=1, amplitude=1.0, hold=8,
    settle=25, steps=2000, threshold=5.0,
)


def test_criterion_5_analog_transmission():
    def check():
        trace, metrics = run_transmit_session(FROZEN_TRANSMIT)
        assert metrics.ber == 0.0
        # all-zeros source degenerates to the pure synchronization run
        zeros = replace(FROZEN_TRANSMIT, source="pattern", pattern="0")
        t_tx, _ = run_transmit_session(zeros)
        t_sync, _ = run_sync_session(replace(zeros, source="off", pattern=""))
        assert np.array_equal(t_tx.column("x"), t_sync.column("x"), equal_nan=True)
        assert np.array_equal(t_tx.column("y"), t_sync.column("y"), equal_nan=True)
        assert np.array_equal(t_tx.column("e"), t_sync.column("e"), equal_nan=True)

    _timed("criterion 5: analog masked transmission, BER = 0", 0.1, check)


def test_criterion_6_digital_path():
    def check():
        cfg = ScenarioConfig(
            mode="fixed", k=1024, x0=122, y0=-1024, steps=16_000,
            source="bernoulli", seed=3, frame_m=16, frame_n=4,
        )
        trace, metrics = run_digital_session(cfg)
        assert metrics.bits_total >= 1000 * 4 - 16
        assert metrics.ber == 0.0
        # reference correlator case
        assert correlate([1, 1, 1, 1, 0, 0, 0, 0], FrameSpec(8, 2)).tolist() == [1.0, 0.0]
        # exhaustive single-flip robustness for r = 4
        spec = FrameSpec(16, 4)
        word = [1, 0, 1, 1]
        clean = spread(word, spec)
        for positions in itertools.product(range(4), repeat=4):
            corrupted = clean.copy()
            for block, offset in enumerate(positions):
                corrupted[block * 4 + offset] ^= 1
            assert decide(correlate(corrupted, spec)).tolist() == word

    _timed("criterion 6: digital frames, BER = 0 over 1e3 frames", 1.0, check)


def test_criterion_7_fixed_point_sync():
    def check():
        params = FixedParams.from_real(3.7, 0.5)
        run = fx_run_sync(params, 122, -1024, 1_000_064)
        assert run.first_equal is not None
        assert run.first_equal <= 64
        n0 = run.first_equal
        assert np.array_equal(run.x[n0:], run.y[n0:])

    _timed("criterion 7: 16-bit sync within 64 steps, held 1e6 steps", 1.0, check)


def test_criterion_8_channel_hopping():
    def check():
        table = build_default_table()
        for j, low, high, center in [
            (1, 60.0, 61.4, 60.7),
            (2, 61.4, 62.8, 62.1),
            (99, 197.2, 198.6, 197.9),
            (100, 198.6, 200.0, 199.3),
        ]:
            entry = table[j]
            assert (entry.f_low, entry.f_high, entry.f_center) == (low, high, center)
        cfg = ScenarioConfig(source="bernoulli", seed=5, sessions=20,
                             active_steps=40)
        _, metrics = run_hop_session(cfg)
        assert len(metrics.hops) == 20
        assert all(h.error == 0 for h in metrics.hops)
        assert len({h.j_tx for h in metrics.hops}) >= 10

    _timed("criterion 8: LUT rows and zero-error hopping", 0.1, check)


def test_criterion_9_chaos_diagnostics():
    def check():
        assert lyapunov_exponent(LogisticParams(4.0), 0.3, 1_000_000) == pytest.approx(
            math.log(2.0), abs=0.01
        )
        assert lyapunov_exponent(LogisticParams(3.7), 0.1, 1_000_000) > 0.0
        assert lyapunov_exponent(LogisticParams(2.5), 0.3, 100_000) < 0.0
        # sensitive dependence: x0 chosen so divergence clears 0.1 by step 60
        p = LogisticParams(3.7)
        a = iterate(p, 0.3, 60)
        b = iterate(p, 0.3 + 1e-9, 60)
        assert np.max(np.abs(a - b)) > 0.1

    _timed("criterion 9: chaos diagnostics", 5.0, check)


def test_criterion_10_cli_determinism(tmp_path, capsys):
    def check():
        cfg = tmp_path / "t.cfg"
        cfg.write_text(
            "source = bernoulli\nseed = 1\nsteps = 2000\nthreshold = 5.0\n"
        )
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            assert cli_main(
                ["transmit", "--config", str(cfg), "--out", str(out)]
            ) == 0
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]

    _timed("criterion 10: byte-identical CLI reruns", 5.0, check)
