import ast
import math
import re
import struct
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path
from typing import get_args
from unittest import mock

import numpy as np
import pytest
from csv_oracle import export_csv_oracle
from hop_oracle import hop_session_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chaoslink.simkit as simkit
from chaoslink import _accel, masking
from chaoslink.core import BasinEscapeError
from chaoslink.simkit import (
    ConfigError,
    DivergenceError,
    HopRecord,
    Metrics,
    ScenarioConfig,
    SessionTrace,
    export_csv,
    export_hops_csv,
    load_config,
    load_trace_csv,
    parse_config_text,
    run_digital_session,
    run_hop_session,
    run_sync_session,
    run_transmit_session,
)

SYNC_CFG = ScenarioConfig()  # the idle-sync experiment defaults
TRANSMIT_CFG = ScenarioConfig(
    source="bernoulli", seed=1, steps=2000, threshold=5.0
)
DIGITAL_CFG = ScenarioConfig(
    mode="fixed", k=1024, x0=122, y0=-1024, steps=16000,
    source="bernoulli", seed=3,
)
HOP_CFG = ScenarioConfig(source="bernoulli", seed=5, sessions=20, active_steps=40)


class TestConfig:
    def test_parse_round_trip(self):
        cfg = parse_config_text(
            "mu = 3.7\nk=1.0\nrho=0.5  # gain\n\n# comment\nsteps=100\n"
        )
        assert cfg.mu == 3.7
        assert cfg.steps == 100

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("bogus = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("mu=3.7\nmu=3.6\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("steps = soon\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config_text("just a line\n")

    def test_bernoulli_requires_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            ScenarioConfig(source="bernoulli", seed=None)

    def test_drawn_disturbance_requires_seed(self):
        # without a seed every run would draw a different disturbance
        with pytest.raises(ConfigError, match="disturbance channel requires an explicit seed"):
            ScenarioConfig(source="pattern", pattern="01", disturbance=1e-3)
        for cfg in (dict(disturbance=0.0), dict(disturbance=1e-3, seed=1)):
            ScenarioConfig(source="pattern", pattern="01", **cfg)

    def test_x0_basin_enforced(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(x0=1.5)

    @pytest.mark.parametrize("tol", [0.0, -1e-6])
    def test_sync_tol_must_be_positive(self, tol):
        # no error meets |e| < tol, so a sync step or hop trigger never comes
        with pytest.raises(ConfigError, match="sync_tol must be > 0"):
            ScenarioConfig(sync_tol=tol)

    @pytest.mark.parametrize("p", [-0.5, -1e-300, 1.0000000000000002, 1.5])
    def test_source_p_outside_unit_interval_rejected(self, p):
        with pytest.raises(ConfigError, match=r"source_p must lie in \[0, 1\]"):
            ScenarioConfig(source="bernoulli", seed=1, source_p=p)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_source_p_bounds_accepted(self, p):
        assert ScenarioConfig(source="bernoulli", seed=1, source_p=p).source_p == p

    def test_every_field_parses_to_its_type(self):
        # one setting per type; a str field takes its default, which its
        # check accepts, and disturbance a setting that needs no seed
        samples = {float: "0.5", int: "30"}
        for field in fields(ScenarioConfig):
            declared = (get_args(field.type) or (field.type,))[0]
            setting = samples.get(declared, field.default)
            if field.name == "disturbance":
                setting = "0.0"
            value = getattr(parse_config_text(f"{field.name} = {setting}\n"), field.name)
            assert type(value) is declared and value == declared(setting), field.name

    def test_rejects_k_whose_law_overflows(self):
        # with guard = 1, (3.7 + 0.5) * 4.28e307 is finite; * 4.29e307 is
        # not, nor with rho = -0.5, though 3.7 * 4.29e307 is, and rho = 0
        # accepts it
        ScenarioConfig(k=4.28e307, x0=1e307, guard=1.0)
        ScenarioConfig(k=4.29e307, x0=1e307, rho=0.0, guard=1.0)
        message = ("scale factor k = 4.29e+307 is too large: "
                   "max(mu + |rho|, 2, guard) * k overflows")
        for rho in (0.5, -0.5):
            with pytest.raises(ConfigError, match=re.escape(message)):
                ScenarioConfig(k=4.29e307, x0=1e307, rho=rho, guard=1.0)

    @pytest.mark.parametrize("mu", ["5", "0"])
    def test_map_parameters_checked_at_parse(self, mu):
        message = f"mu must lie in (0, 4], got {float(mu)}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config_text(f"mu = {mu}\n")

    def test_load_config(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("mu=3.7\nsteps=60\n")
        assert load_config(path).steps == 60


class TestSyncSession:
    def test_reference_run(self):
        trace, metrics = run_sync_session(SYNC_CFG)
        assert len(trace) == 51
        assert metrics.sync_step == 25
        assert abs(trace.column("e")[50]) < 1e-14
        # error follows the closed form rho^n * e0
        for n, e in enumerate(trace.column("e")):
            assert abs(e - 0.5**n * -1.1) <= 1e-9 * max(n, 1)

    def test_shorter_than_settle(self):
        trace, metrics = run_sync_session(replace(SYNC_CFG, steps=10))
        assert len(trace) == 11 and metrics.sync_step is None

    def test_equal_start(self):
        trace, metrics = run_sync_session(replace(SYNC_CFG, y0=0.1))
        assert all(e == 0.0 for e in trace.column("e"))
        assert metrics.sync_step == SYNC_CFG.sync_window - 1

    def test_unstable_gain(self):
        trace, metrics = run_sync_session(replace(SYNC_CFG, rho=1.2, steps=30))
        errs = np.abs(trace.column("e"))
        assert np.all(np.diff(errs) > 0)
        assert metrics.sync_step is None

    def test_trace_keeps_every_column_as_passed(self):
        # every column has the trace's rows; the control is NaN on the last
        # row, which carries no line sample
        trace, _, passed = _passed_columns(run_sync_session, SYNC_CFG)
        assert set(passed) == {"x", "y", "e", "u"}
        for name, values in passed.items():
            assert values.shape == (len(trace),)
            assert trace.column(name) is values
        assert np.isnan(trace.column("u")[-1])
        assert not np.isnan(trace.column("u")[:-1]).any()

    def test_absent_error_breaks_the_run(self):
        errors = np.array([0.0, 0.0, np.nan, 0.0, 0.0, 0.0])
        assert simkit._sync_step(errors, 1e-6, 3) == 5
        assert simkit._sync_step(errors, 1e-6, 4) is None

    def test_unstable_gain_hits_guard(self):
        with pytest.raises(DivergenceError, match="guard"):
            run_sync_session(replace(SYNC_CFG, rho=3.0, steps=1000))

    def test_source_must_be_off(self):
        with pytest.raises(ConfigError):
            run_sync_session(replace(SYNC_CFG, source="pattern", pattern="1"))

    def test_final_record_has_no_control(self):
        trace, _ = run_sync_session(SYNC_CFG)
        assert np.isnan(trace.column("u")[-1])
        assert not np.isnan(trace.column("u")[0])


def _passed_columns(run, cfg):
    """run(cfg)'s trace and metrics, and the columns it built its
    SessionTrace from, by name."""
    passed = {}

    def recording(rows, **columns):
        passed.update(columns)
        return SessionTrace(rows, **columns)

    with mock.patch.object(simkit, "SessionTrace", side_effect=recording):
        trace, metrics = run(cfg)
    return trace, metrics, passed


class TestTransmitSession:
    def test_frozen_scenario_recovers_exactly(self):
        trace, metrics = run_transmit_session(TRANSMIT_CFG)
        assert metrics.ber == 0.0
        assert metrics.bits_total == 246

    def test_ber_zero_across_seeds(self):
        for seed in range(10):
            _, metrics = run_transmit_session(replace(TRANSMIT_CFG, seed=seed))
            assert metrics.ber == 0.0

    def test_all_zero_source_degenerates_to_sync(self):
        cfg = replace(TRANSMIT_CFG, source="pattern", pattern="0", steps=2000,
                      settle=25)
        t_tx, _ = run_transmit_session(cfg)
        t_sync, _ = run_sync_session(
            replace(cfg, source="off", pattern="")
        )
        for col in ("x", "y", "e"):
            assert np.array_equal(t_tx.column(col), t_sync.column(col), equal_nan=True)
        assert np.array_equal(t_tx.column("u")[:-1], t_sync.column("u")[:-1],
                              equal_nan=True)
        # line signal is the bare drive state and epsilon equals e
        assert np.array_equal(t_tx.column("z")[:-1], t_sync.column("x")[:-1],
                              equal_nan=True)
        assert np.array_equal(t_tx.column("epsilon")[:-1], t_sync.column("e")[:-1],
                              equal_nan=True)

    def test_early_window_fringes(self):
        # decisions inside the settle window may disagree with the source
        cfg = replace(TRANSMIT_CFG, threshold=0.5)
        trace, _ = run_transmit_session(cfg)
        early = [b for n, b in zip(trace.column("n"), trace.column("bit"))
                 if not np.isnan(b) and n < cfg.settle]
        assert early  # fringe decisions exist and are recorded

    def test_requires_source(self):
        with pytest.raises(ConfigError):
            run_transmit_session(replace(TRANSMIT_CFG, source="off"))

    def test_steps_multiple_of_hold(self):
        with pytest.raises(ConfigError):
            run_transmit_session(replace(TRANSMIT_CFG, steps=2001))

    def test_divergence_guard(self):
        with pytest.raises(DivergenceError):
            run_transmit_session(
                replace(TRANSMIT_CFG, rho=1.6, steps=2000, guard=100.0)
            )

    def test_escape_beats_divergence_at_same_step(self):
        # x: 0.5 -> 1.0 leaves the basin at step 1, where y also passes the guard
        cfg = replace(TRANSMIT_CFG, mu=4.0, x0=0.5, y0=999.0, rho=3.0, steps=80)
        with pytest.raises(BasinEscapeError) as info:
            run_transmit_session(cfg)
        assert info.value.step == 1

    def test_recovery_near_zero_fails_before_the_step_update(self):
        # recovery at step 0 (y = 0) comes before the escape at step 1
        cfg = replace(TRANSMIT_CFG, mu=4.0, x0=0.5, y0=0.0, steps=80,
                      operator="multiplicative")
        with pytest.raises(ZeroDivisionError):
            run_transmit_session(cfg)

    def test_multiplicative_operator_runs(self):
        cfg = replace(TRANSMIT_CFG, operator="multiplicative", amplitude=0.2,
                      threshold=None)
        trace, metrics = run_transmit_session(cfg)
        assert len(trace) == cfg.steps + 1

    def test_settle_before_steps(self):
        with pytest.raises(ConfigError, match="settle must be smaller than steps"):
            run_transmit_session(replace(TRANSMIT_CFG, steps=16, settle=25))
        _, metrics = run_transmit_session(replace(TRANSMIT_CFG, steps=16, settle=8))
        assert metrics.bits_total == 1

    def test_disturbance_zero_equals_ideal(self):
        ideal, _ = run_transmit_session(TRANSMIT_CFG)
        dist, _ = run_transmit_session(replace(TRANSMIT_CFG, disturbance=0.0))
        assert np.array_equal(ideal.column("z"), dist.column("z"), equal_nan=True)
        assert np.array_equal(ideal.column("y"), dist.column("y"), equal_nan=True)

    def test_disturbance_alone_draws_line_noise(self):
        # disturbance > 0 is the one switch for the drawn disturbance
        ideal, _ = run_transmit_session(TRANSMIT_CFG)
        dist, _ = run_transmit_session(replace(TRANSMIT_CFG, disturbance=0.01))
        noise = (dist.column("z") - ideal.column("z"))[:-1]
        assert np.all(noise != 0) and np.all(np.abs(noise) <= 0.01 + 1e-12)
        assert np.array_equal(dist.column("x"), ideal.column("x"))

    @pytest.mark.parametrize("seed", [1, 7, 123])
    def test_disturbance_keeps_the_draws_of_steps_samples(self, seed):
        # one disturbance sample per row, the last row's on no line sample:
        # the first steps samples are the draws of a steps-sample draw
        for operator in ("additive", "multiplicative"):
            cfg = replace(TRANSMIT_CFG, seed=seed, operator=operator, disturbance=0.01)
            trace, _ = run_transmit_session(cfg)
            rng = np.random.default_rng(seed)
            simkit._symbol_stream(cfg, cfg.steps // cfg.hold, rng)
            dist = rng.uniform(-cfg.disturbance, cfg.disturbance, cfg.steps)
            x, i = trace.column("x")[:-1], trace.column("i")[:-1]
            line = masking.forward(operator, x, i) + dist
            assert trace.column("z")[:-1].tobytes() == line.tobytes()
            assert np.isnan(trace.column("z")[-1])

    @pytest.mark.parametrize("operator", ["additive", "multiplicative"])
    def test_trace_keeps_every_full_column_as_passed(self, operator):
        # every column has the trace's rows; the line, epsilon, the
        # information, the control and the estimate are NaN on the last row,
        # which carries no line sample
        cfg = replace(TRANSMIT_CFG, operator=operator, amplitude=0.2)
        trace, _, passed = _passed_columns(run_transmit_session, cfg)
        assert set(passed) == set(simkit.TRACE_COLUMNS) - {"n", "channel"}
        for name, values in passed.items():
            assert values.shape == (len(trace),)
            assert trace.column(name) is values
        assert np.isnan([trace.column(name)[-1]
                         for name in ("z", "epsilon", "u", "i", "i_hat")]).all()
        assert not np.isnan(trace.column("u")[:-1]).any()
        assert not np.isnan(trace.column("i_hat")[:-1]).any()

    @pytest.mark.parametrize("last", [True, False])
    def test_recovery_is_not_guarded_on_the_last_row(self, last):
        # z = x * (1 - 1) = 0 on the one 1 bit, so with rho = 0 the next
        # response state is within 1e-12 of 0: on the last row, which
        # carries no line sample, the run holds; one row earlier, recovery
        # on that row fails
        bits = "0" * 49 + "1" if last else "0" * 48 + "10"
        cfg = ScenarioConfig(rho=0.0, operator="multiplicative", amplitude=-1.0,
                             source="pattern", pattern=bits, hold=1, steps=50, settle=0)
        if not last:
            with pytest.raises(ZeroDivisionError, match="multiplicative recovery"):
                run_transmit_session(cfg)
            return
        trace, _ = run_transmit_session(cfg)
        assert abs(trace.column("y")[-1]) < 1e-12
        assert np.isnan(trace.column("i_hat")[-1])
        assert not np.isnan(trace.column("i_hat")[:-1]).any()

    @pytest.mark.parametrize("operator", ["additive", "multiplicative"])
    @pytest.mark.parametrize("disturbance", [0.0, 0.01])
    def test_peak_memory_above_the_trace(self, operator, disturbance):
        # Beyond the trace it returns, a 20 000-step transmit peaks at about
        # 3.2 columns of its rows (0.49 MiB), 4.2 with a drawn disturbance;
        # a session that builds z, epsilon and i short and copies each to
        # the trace's length peaks two columns higher.
        cfg = replace(TRANSMIT_CFG, steps=20_000, operator=operator, disturbance=disturbance)
        run_transmit_session(cfg)
        tracemalloc.start()
        try:
            trace, _ = run_transmit_session(cfg)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        column = trace.column("x").nbytes
        assert peak - kept < (4 + (disturbance > 0)) * column


class TestDigitalSession:
    def test_frozen_scenario(self):
        trace, metrics = run_digital_session(DIGITAL_CFG)
        assert metrics.sync_step is not None and metrics.sync_step <= 64
        assert metrics.ber == 0.0
        assert metrics.bits_total >= 1000 * 4 - 4 * 4  # ~1000 post-sync frames

    def test_all_zero_word_recovers(self):
        cfg = replace(DIGITAL_CFG, source="pattern", pattern="0", steps=1600)
        trace, metrics = run_digital_session(cfg)
        assert metrics.ber == 0.0
        bit = trace.column("bit")
        decided = bit[~np.isnan(bit)]
        post = decided[metrics.sync_step // 4:]
        assert all(b == 0 for b in post)

    def test_presync_frames_show_fringes(self):
        # before exact sync the receiver carrier differs, so some line
        # bits descramble incorrectly
        trace, metrics = run_digital_session(replace(DIGITAL_CFG, seed=9))
        n0 = metrics.sync_step
        i = trace.column("i")
        ihat = trace.column("i_hat")
        pre = slice(0, n0)
        mism = np.nansum(np.abs(ihat[pre] - i[pre]))
        assert mism > 0

    def test_requires_fixed_mode(self):
        with pytest.raises(ConfigError):
            run_digital_session(replace(DIGITAL_CFG, mode="float"))

    def test_one_frame_run(self):
        # settle bounds transmit runs only: its default 25 > steps is fine here
        trace, metrics = run_digital_session(replace(DIGITAL_CFG, steps=16))
        assert len(trace) == 17
        assert metrics.sync_step == 11 and metrics.bits_total == 0

    def test_steps_multiple_of_frame(self):
        with pytest.raises(ConfigError):
            run_digital_session(replace(DIGITAL_CFG, steps=16001, settle=25))

    def test_trace_keeps_every_column_as_passed(self):
        # every column has the trace's rows; the line bit and the spread
        # information bit are NaN on the last row, which carries no line bit
        trace, _, passed = _passed_columns(run_digital_session, DIGITAL_CFG)
        assert set(passed) == {"x", "y", "e", "z", "i", "i_hat", "bit"}
        for name, values in passed.items():
            assert values.shape == (len(trace),)
            assert trace.column(name) is values
        for name in ("z", "i"):
            assert np.isnan(trace.column(name)[-1])
            assert set(trace.column(name)[:-1].tolist()) == {0.0, 1.0}


@st.composite
def hop_configs(draw):
    """Hop configs across sources, phase lengths, gains, guards and both
    operators; a quarter start the drive on a mu = 4 preimage of k/2,
    which escapes within about 20 steps."""
    source = draw(st.sampled_from(["off", "bernoulli", "pattern"]))
    cfg = ScenarioConfig(
        source=source, seed=draw(st.integers(0, 2**16)),
        pattern=draw(st.sampled_from(["0", "1", "01", "0001", "110"])) if source == "pattern" else "",
        sessions=draw(st.sampled_from(range(6))),
        active_steps=draw(st.sampled_from([0, 1]) | st.integers(2, 30)),
        hold=draw(st.integers(1, 8)),
        sync_window=draw(st.integers(1, 8)),
        rho=draw(st.sampled_from([0.0, 0.5, -0.5, 0.9, -0.9, 1.0, 1.3])),
        guard=draw(st.sampled_from([1e3, 1.0, 1.05, 2.0])),
        operator=draw(st.sampled_from(["additive", "multiplicative"])),
        amplitude=draw(st.sampled_from([1.0, 0.05, -1.0])),
        sync_tol=draw(st.sampled_from([1e-6, 1e-3])),
        x0=draw(st.floats(0.01, 0.99)),
        y0=draw(st.sampled_from([-1.0, 0.0, 0.5]) | st.floats(-2.0, 2.0)),
    )
    if draw(st.sampled_from([False, False, False, True])):
        x = 0.5
        for upper in draw(st.lists(st.booleans(), max_size=20)):
            root = math.sqrt(1.0 - x)
            x = (1.0 + root) / 2.0 if upper else (1.0 - root) / 2.0
        cfg = replace(cfg, mu=4.0, x0=x)
    return cfg


def _hop_outcome(run, cfg):
    """Trace bytes and metrics repr of a hop run, or its error type and text."""
    try:
        trace, metrics = run(cfg)
    except (BasinEscapeError, DivergenceError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return [trace.column(name).tobytes() for name in simkit.TRACE_COLUMNS], repr(metrics)


def _chunk_recorder(chunks):
    """A stand-in for _accel.hop_run that appends each chunk it yields to
    chunks."""
    hop_run = _accel.hop_run

    def recorded(*args):
        for chunk in hop_run(*args):
            chunks.append(chunk)
            yield chunk

    return recorded


def _kernel_stop(cfg):
    """(last row, fail) of the hop_run generator under run_hop_session(cfg),
    and the session's _hop_outcome."""
    chunks = []
    with mock.patch.object(_accel, "hop_run", side_effect=_chunk_recorder(chunks)):
        outcome = _hop_outcome(run_hop_session, cfg)
    rows = sum(xs.size for xs, *_ in chunks)
    return (rows - 1, chunks[-1][3]), outcome


class TestHopSession:
    def test_frozen_scenario(self):
        trace, metrics = run_hop_session(HOP_CFG)
        assert len(metrics.hops) == 20
        assert metrics.channel_error_count == 0
        assert len({h.j_tx for h in metrics.hops}) >= 10

    def test_channel_column_marks_hops(self):
        trace, metrics = run_hop_session(HOP_CFG)
        channel = trace.column("channel")
        marked = channel[~np.isnan(channel)]
        assert len(marked) == 20
        assert [int(c) for c in marked] == [h.j_tx for h in metrics.hops]

    def test_steps_and_settle_not_read(self):
        trace, metrics = run_hop_session(HOP_CFG)
        short, short_metrics = run_hop_session(replace(HOP_CFG, steps=1, settle=25))
        assert repr(short_metrics) == repr(metrics)
        for name in simkit.TRACE_COLUMNS:
            assert short.column(name).tobytes() == trace.column(name).tobytes()

    def test_deterministic(self):
        a, ma = run_hop_session(HOP_CFG)
        b, mb = run_hop_session(HOP_CFG)
        assert ma.hops == mb.hops
        assert np.array_equal(a.column("x"), b.column("x"), equal_nan=True)

    def test_nan_idle_response_trips_guard(self):
        # step(y) overflows to -inf and u to inf, so y is NaN after one step
        with pytest.raises(DivergenceError, match=r"guard 1e\+300 at step 1$"):
            run_hop_session(replace(HOP_CFG, y0=1e200, guard=1e300))

    @pytest.mark.parametrize("cfg", [
        replace(HOP_CFG, y0=1e200, guard=1e300),
        replace(HOP_CFG, source="off", y0=1e200, guard=1e300),
        # the first active line sample is x * (1 + 1e300), so its control
        # overflows
        replace(HOP_CFG, operator="multiplicative", amplitude=1e300, source="pattern",
                pattern="1"),
    ])
    def test_overflowing_response_is_quiet(self, cfg):
        # the kernel's Python floats overflow silently; so must the session's
        # vector control pass
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = _hop_outcome(run_hop_session, cfg)
        assert outcome[0] is DivergenceError
        assert outcome == _hop_outcome(hop_session_oracle, cfg)

    def test_zero_session_error_overflow_is_quiet(self):
        # no row is stepped, and the one error, y0 - x0, overflows to -inf;
        # k is about the largest that max(mu + |rho|, 2, guard) * k allows
        cfg = ScenarioConfig(k=4.28e307, x0=4e307, y0=-1.5e308, sessions=0, guard=4.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace, metrics = run_hop_session(cfg)
        assert trace.column("e").tolist() == [-np.inf]
        assert metrics.max_abs_error == np.inf

    def test_scale_factor_whose_channel_count_multiple_overflows(self):
        # C*k overflows for k = 1e307: the channels come from states and k
        # divided by a power of two
        cfg = ScenarioConfig(k=1e307, x0=3e306, y0=3e306, sessions=2, guard=4.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, metrics = run_hop_session(cfg)
        assert [(h.j_tx, h.j_rx) for h in metrics.hops] == [(93, 93), (73, 73)]
        assert _hop_outcome(run_hop_session, cfg) == _hop_outcome(hop_session_oracle, cfg)

    @settings(max_examples=80, deadline=None)
    @given(cfg=hop_configs())
    # a pattern restarts in each session
    @example(cfg=ScenarioConfig(source="pattern", pattern="110", active_steps=2, hold=1,
                                sessions=3))
    # the last active innovations (after a 1 bit, with rho = 0) hold back the
    # next trigger, whose first idle innovations are already below sync_tol
    @example(cfg=ScenarioConfig(source="pattern", pattern="10", active_steps=2, hold=1,
                                sessions=3, rho=0.0, sync_window=3))
    # the drive escapes at step 2 (x: 0.146... -> 0.5 -> 1.0), where the
    # trigger would hop
    @example(cfg=ScenarioConfig(mu=4.0, x0=(1.0 - math.sqrt(0.5)) / 2.0, rho=0.0,
                                sync_window=1))
    # the drive escapes at step 1, where the response also passes the guard
    @example(cfg=ScenarioConfig(mu=4.0, x0=0.5, y0=999.0, rho=3.0))
    # about 6 500 rows: hop_run yields its first chunk between two sessions,
    # once 4096 rows have gathered
    @example(cfg=ScenarioConfig(source="bernoulli", seed=3, sessions=80, active_steps=60))
    # e' = 0.998 e: the first idle phase takes about 6 960 steps, longer
    # than a 4096-row hop_run chunk
    @example(cfg=ScenarioConfig(rho=0.998, source="pattern", pattern="01", sessions=2,
                                active_steps=5))
    # this mu = 4 drive reaches x = 1.0 at step 4440, after the first chunk
    @example(cfg=ScenarioConfig(mu=4.0, x0=0.044666150338579715, rho=0.0,
                                source="bernoulli", seed=1, sessions=200))
    # rho = 1 never triggers: the cap comes after 10 000 idle rows, in the
    # one chunk
    @example(cfg=ScenarioConfig(rho=1.0, sessions=2))
    # the drive escapes at step 9, from row 8, the first active row of the
    # second session (hops at rows 2 and 8)
    @example(cfg=ScenarioConfig(mu=4.0, x0=0.19480859686184532, rho=0.0, sync_window=1,
                                source="bernoulli", seed=1, active_steps=5))
    # the response passes the guard at step 28, from row 27, the first 1 bit
    # of the first active phase (hop at row 26)
    @example(cfg=ScenarioConfig(source="pattern", pattern="01", hold=1, amplitude=100.0,
                                sessions=5, active_steps=10))
    # y0 = x0 syncs exactly; with rho = 2 the error of the one active row
    # doubles on each idle row after it, until the response passes the guard
    # at step 18, from idle row 17 of the second session (hop at row 5)
    @example(cfg=ScenarioConfig(x0=0.3, y0=0.3, rho=2.0, source="pattern", pattern="1",
                                hold=1, amplitude=0.05, sessions=3, active_steps=1))
    # an active phase ends on row 4095, so the first chunk holds exactly
    # 4096 rows
    @example(cfg=ScenarioConfig(source="bernoulli", seed=111, sessions=80, active_steps=60))
    def test_matches_stepwise_oracle(self, cfg):
        assert _hop_outcome(run_hop_session, cfg) == _hop_outcome(hop_session_oracle, cfg)

    # the row of the largest stepped |y|: each loop steps one, at each sign
    @pytest.mark.parametrize("changes", [
        dict(source="off"),  # row 18, idle, y = 0.92
        dict(source="off", y0=-3.0),  # row 1, idle, y = -1.22
        dict(amplitude=-0.5),  # row 110, after an active row, y = 1.14
        dict(),  # row 119, after an active row, y = -12.3
    ])
    def test_guard_edge(self, changes):
        # k = 1, so the response guard is the guard itself. A guard equal to
        # the largest |y| of a stepped row holds that row; one ulp below, the
        # run fails there.
        cfg = replace(HOP_CFG, sessions=3, **changes)
        trace, _ = run_hop_session(cfg)
        y = trace.column("y")
        row = 1 + int(np.argmax(np.abs(y[1:])))  # the kernel does not test y0
        held = replace(cfg, guard=abs(float(y[row])))
        stop, outcome = _kernel_stop(held)
        assert stop == (len(trace) - 1, 0)
        assert outcome == _hop_outcome(run_hop_session, cfg)
        assert outcome == _hop_outcome(hop_session_oracle, held)
        below = replace(cfg, guard=float(np.nextafter(held.guard, 0.0)))
        stop, outcome = _kernel_stop(below)
        assert stop == (row, _accel.DIVERGED)
        assert outcome == (DivergenceError,
                           f"response exceeded guard {below.guard} at step {row}")
        assert outcome == _hop_outcome(hop_session_oracle, below)

    def test_tol_edge(self):
        # Errors halve on idle rows, so the first trigger's run starts at the
        # first row with |epsilon| < sync_tol. With sync_tol equal to that
        # row's |epsilon| the row does not extend the run, and the hop comes
        # one row later; one ulp above, the hop is unchanged.
        cfg = replace(HOP_CFG, sessions=3)
        trace, metrics = run_hop_session(cfg)
        hop = metrics.hops[0].step
        row = hop - cfg.sync_window
        tol = abs(float(trace.column("epsilon")[row]))
        assert abs(trace.column("epsilon")[row - 1]) >= cfg.sync_tol > tol
        for sync_tol, first in [(tol, hop + 1), (float(np.nextafter(tol, np.inf)), hop)]:
            edge = replace(cfg, sync_tol=sync_tol)
            _, metrics = run_hop_session(edge)
            assert metrics.hops[0].step == first
            assert _hop_outcome(run_hop_session, edge) == _hop_outcome(hop_session_oracle, edge)

    @pytest.mark.parametrize("source", ["bernoulli", "off"])
    def test_trace_keeps_every_column_as_passed(self, source):
        # every column the session builds has the trace's rows
        cfg = replace(HOP_CFG, source=source)
        trace, metrics, passed = _passed_columns(run_hop_session, cfg)
        assert set(passed) == set(simkit.TRACE_COLUMNS) - {"n", "bit"}
        for name, values in passed.items():
            assert values.shape == (len(trace),)
            assert trace.column(name) is values
        # a hop record is an immutable named tuple of five fields
        assert HopRecord._fields == ("session", "step", "j_tx", "j_rx", "error")
        with pytest.raises(AttributeError):
            metrics.hops[0].error = 1
        assert metrics.hops == hop_session_oracle(cfg)[1].hops

    def test_trigger_window_reaches_back_across_phases(self):
        # An all-zero pattern keeps every active innovation below sync_tol, so
        # the window carried over from the active phase is already full and
        # each later idle phase hops after one step.
        cfg = replace(HOP_CFG, source="pattern", pattern="0", sessions=4, active_steps=3)
        _, metrics = run_hop_session(cfg)
        steps = [h.step for h in metrics.hops]
        assert np.diff(steps).tolist() == [3 + 1] * 3
        assert _hop_outcome(run_hop_session, cfg) == _hop_outcome(hop_session_oracle, cfg)

    def test_recovery_near_zero_fails_in_its_session(self):
        # z = x * (1 - 1) = 0 on the first active row, so with rho = 0 the
        # response is 0 on the second; the drive (a mu = 4 preimage of 1/2)
        # escapes only at step 19, in a later session
        cfg = ScenarioConfig(mu=4.0, x0=0.11697884834697786, rho=0.0, sync_window=1,
                             operator="multiplicative", amplitude=-1.0, source="pattern",
                             pattern="1", hold=1, active_steps=3, sessions=5)
        with pytest.raises(ZeroDivisionError, match="multiplicative recovery"):
            run_hop_session(cfg)
        with pytest.raises(BasinEscapeError, match="at step 19: x = 1.0$"):
            run_hop_session(replace(cfg, operator="additive"))
        assert _hop_outcome(run_hop_session, cfg) == _hop_outcome(hop_session_oracle, cfg)

    def test_idle_cap(self):
        # rho = 1 keeps the error at its initial value, so no trigger comes
        with pytest.raises(DivergenceError, match="^no sync trigger within 10000 idle steps$"):
            run_hop_session(replace(HOP_CFG, rho=1.0))

    def test_kernel_calls_per_run(self):
        # one hop_run generator per run; each chunk but the last holds at
        # least 4096 rows and ends with an active phase, so the next one
        # starts width rows after a hop row; hop_run steps the drive
        # itself, and no phase calls response_states
        cfg = replace(HOP_CFG, sessions=300)
        chunks = []
        with (mock.patch.object(_accel, "logistic_orbit", wraps=_accel.logistic_orbit) as orbit,
              mock.patch.object(_accel, "hop_run", side_effect=_chunk_recorder(chunks)) as kernel,
              mock.patch.object(_accel, "response_states", wraps=_accel.response_states) as track):
            _, metrics = run_hop_session(cfg)
        assert len(metrics.hops) == 300
        assert kernel.call_count == 1
        sizes = [xs.size for xs, *_ in chunks[:-1]]
        assert sizes and min(sizes) >= 4096
        hop_rows = {record.step for record in metrics.hops}
        assert all(cut - cfg.active_steps in hop_rows for cut in np.cumsum(sizes).tolist())
        assert (orbit.call_count, track.call_count) == (0, 0)

    @settings(max_examples=60, deadline=None)
    @given(cfg=hop_configs(), chunk=st.sampled_from([1, 2, 3, 7, 64, 4096]))
    # about 6 500 rows, hops and active phases falling on every cut
    @example(cfg=ScenarioConfig(source="bernoulli", seed=3, sessions=80, active_steps=60),
             chunk=7)
    def test_outcome_does_not_depend_on_the_chunk_size(self, cfg, chunk):
        # hop_run keeps its state across chunks, so the rows per chunk
        # change nothing
        expected = _hop_outcome(run_hop_session, cfg)
        with mock.patch.object(_accel, "_HOP_CHUNK", chunk):
            assert _hop_outcome(run_hop_session, cfg) == expected

    @pytest.mark.parametrize("cfg", [
        replace(HOP_CFG, sessions=300),
        replace(HOP_CFG, operator="multiplicative", amplitude=0.2, source="pattern",
                pattern="0110", hold=4, sessions=120),
        replace(HOP_CFG, source="off", sessions=2500),
    ])
    def test_drive_column_is_the_logistic_orbit(self, cfg):
        # the kernel steps the drive with logistic_orbit's own expression
        trace, _ = run_hop_session(cfg)
        orbit, escape = _accel.logistic_orbit(cfg.mu, cfg.k, cfg.x0, len(trace) - 1)
        assert escape == -1 and len(trace) > 4096
        assert trace.column("x").tobytes() == orbit.tobytes()

    def test_peak_memory_is_chunk_bounded(self):
        # Beyond the trace it returns, a 300-session run (18 826 rows) peaks
        # at about 0.72 MiB, in the trace assembly, whether or not the rows
        # come in chunks; test_hop_run_holds_one_chunk_of_rows bounds the
        # kernel's own rows in flight.
        cfg = replace(HOP_CFG, sessions=300)
        run_hop_session(cfg)
        tracemalloc.start()
        try:
            trace, _ = run_hop_session(cfg)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace) > 18_000
        assert peak - kept < 2**20

    @settings(max_examples=40, deadline=None)
    @given(
        sessions=st.integers(0, 6),
        active_steps=st.integers(0, 30),
        hold=st.integers(1, 8),
        sync_window=st.integers(1, 8),
        source=st.sampled_from(["off", "bernoulli"]),
    )
    def test_derived_columns(self, sessions, active_steps, hold, sync_window, source):
        cfg = replace(HOP_CFG, sessions=sessions, active_steps=active_steps, hold=hold,
                      sync_window=sync_window, source=source)
        trace, metrics = run_hop_session(cfg)
        x, y, z = trace.column("x"), trace.column("y"), trace.column("z")
        assert np.array_equal(trace.column("e"), y - x)
        line = ~np.isnan(z)
        assert np.array_equal(trace.column("epsilon")[line], (y - z)[line])
        marked = np.flatnonzero(~np.isnan(trace.column("channel")))
        assert marked.tolist() == [h.step for h in metrics.hops]

    def test_hops_csv(self, tmp_path):
        _, metrics = run_hop_session(HOP_CFG)
        path = tmp_path / "hops.csv"
        export_hops_csv(metrics.hops, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "session,step,j_tx,j_rx,error"
        assert len(lines) == 21


def _padded_copy(rows: int, values) -> np.ndarray:
    """A whole trace column of `rows` rows: values as floats, then NaN, in
    a fresh float64 array."""
    column = np.full(rows, np.nan)
    values = np.asarray(values, dtype=float)
    column[:values.size] = values
    return column


SIMKIT = {node.name: node for node in ast.parse(Path(simkit.__file__).read_text()).body
          if isinstance(node, ast.FunctionDef)}


def _raised(node):
    """The names of the exceptions node's code raises."""
    return [ast.unparse(getattr(r.exc, "func", r.exc)).rpartition(".")[2]
            for r in ast.walk(node) if isinstance(r, ast.Raise) and r.exc is not None]


def test_one_failure_path_for_every_session():
    # _track reports a run's first failure and _fail_at raises it: the two
    # session failures are raised only there, _track neither raises nor
    # recovers, sync recovers nothing, and the hop session hands its
    # kernel's failure kind to _fail_at without reading it
    session_failures = {"BasinEscapeError", "DivergenceError"}
    raising = {name for name, node in SIMKIT.items() if session_failures & set(_raised(node))}
    assert raising == {"_fail_at"}
    assert set(_raised(SIMKIT["_fail_at"])) == session_failures
    assert _raised(SIMKIT["_track"]) == []
    for name in ("_track", "run_sync_session"):
        assert "recover" not in {n.id for n in ast.walk(SIMKIT[name]) if isinstance(n, ast.Name)}
    read = {n.attr for n in ast.walk(SIMKIT["run_hop_session"]) if isinstance(n, ast.Attribute)}
    read |= {n.id for n in ast.walk(SIMKIT["run_hop_session"]) if isinstance(n, ast.Name)}
    assert not read & {"ESCAPED", "DIVERGED", "IDLE_CAPPED"}


def _arguments_read(node, *functions):
    """The names and attributes that the arguments of node's calls of
    functions read."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for call in ast.walk(node) if isinstance(call, ast.Call)
            and ast.unparse(call.func).rpartition(".")[2] in functions
            for arg in call.args + [kw.value for kw in call.keywords]
            for n in ast.walk(arg) if isinstance(n, (ast.Name, ast.Attribute))}


def test_receiver_calls_read_no_drive_state():
    # the sync and transmit receivers are line-only: no argument of the
    # response's, the control column's, the recovery's or the detector's
    # call reads the drive x or its start x0
    track = _arguments_read(SIMKIT["_track"], "response_states", "control_column")
    transmit = _arguments_read(SIMKIT["run_transmit_session"], "recover", "threshold_detect")
    assert {"z", "y"} <= track and {"z", "y", "ihat"} <= transmit
    assert not (track | transmit) & {"x", "x0"}


def _receive(cfg, line):
    """The receiver run on a trace's line alone: the response y, the
    control u, the estimate i_hat and the bit decisions."""
    y, _ = _accel.response_states(cfg.mu, cfg.k, cfg.rho, cfg.y0, line[:-1],
                                  cfg.response_guard)
    u = _accel.control_column(cfg.mu, cfg.k, cfg.rho, y, line)
    i_hat = masking.recover(cfg.operator, line, y)
    return y, u, i_hat, masking.threshold_detect(i_hat[:-1], cfg.hold, cfg.detect_threshold)


@pytest.mark.parametrize("operator", ["additive", "multiplicative"])
@pytest.mark.parametrize("disturbance", [0.0, 0.01])
@pytest.mark.parametrize("seed", [1, 7, 123])
def test_transmit_receiver_reads_only_the_line(operator, disturbance, seed):
    cfg = replace(TRANSMIT_CFG, operator=operator, disturbance=disturbance, seed=seed,
                  amplitude=0.2, threshold=None)
    trace, _ = run_transmit_session(cfg)
    y, u, i_hat, bits = _receive(cfg, trace.column("z"))
    assert y.tobytes() == trace.column("y").tobytes()
    assert u.tobytes() == trace.column("u").tobytes()
    assert i_hat.tobytes() == trace.column("i_hat").tobytes()
    assert bits.astype(float).tobytes() == trace.column("bit")[cfg.hold - 1::cfg.hold].tobytes()
    assert 0 < bits.sum() < bits.size


@pytest.mark.parametrize("operator", ["additive", "multiplicative"])
def test_sync_receiver_reads_only_the_line(operator):
    # the sync line is the bare drive state, none on the last row
    cfg = replace(SYNC_CFG, operator=operator, steps=2000)
    trace, _ = run_sync_session(cfg)
    line = trace.column("x").copy()
    line[-1] = np.nan
    y, u, _, _ = _receive(cfg, line)
    assert y.tobytes() == trace.column("y").tobytes()
    assert u.tobytes() == trace.column("u").tobytes()


class TestSessionTrace:
    def test_full_float_column_is_kept(self):
        x = np.linspace(0.0, 1.0, 5)
        assert SessionTrace(5, x=x).column("x") is x

    def test_absent_column_is_read_only_nan(self):
        trace = SessionTrace(4)
        for name in ("y", "channel"):
            column = trace.column(name)
            assert column.shape == (4,) and column.dtype == np.float64
            assert np.isnan(column).all()
            with pytest.raises(ValueError):
                column[0] = 1.0
        # every absent column is one shared view
        assert trace.column("y") is trace.column("channel")

    def test_n_defaults_to_float_row_numbers(self):
        n = SessionTrace(3).column("n")
        assert n.dtype == np.float64 and n.tolist() == [0.0, 1.0, 2.0]

    # a trace converts, pads and reads as absent none of these
    @pytest.mark.parametrize("values", [
        [0.25, -0.0, math.nan, -math.inf, 1.0, 5e-324],
        np.array([-32768, -3, -1, 0, 1, 32767], dtype=np.int64),
        np.array([0, 1, 1, 0, 1, 0], dtype=np.uint8),
        np.array([0.5, -0.0, np.inf, np.nan, 1e-300]),
        np.empty(0),
        [],
    ], ids=["list", "int64", "uint8", "short", "empty", "empty-list"])
    def test_other_columns_rejected(self, values):
        with pytest.raises(ValueError, match="column i is not a float64 array of 6 rows"):
            SessionTrace(6, i=values)

    @pytest.mark.parametrize("name", ["ihat", "I", "X", "channels", "i-hat"])
    def test_unknown_column_names_rejected(self, name):
        # a misspelled column was dropped, and the column it meant read NaN
        with pytest.raises(ValueError, match=re.escape(f"unknown columns ['{name}']")):
            SessionTrace(3, **{name: np.zeros(3)})

    @pytest.mark.parametrize("values", [np.arange(7.0), np.arange(7),
                                        np.ones(7, dtype=np.uint8), [0.0] * 7])
    def test_longer_column_rejected(self, values):
        with pytest.raises(ValueError):
            SessionTrace(6, x=values)


class TestTraceCsv:
    def test_round_trip_exact(self, tmp_path):
        trace, _ = run_transmit_session(TRANSMIT_CFG)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        export_csv(trace, p1)
        export_csv(load_trace_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_absent_fields_are_empty_cells(self, tmp_path):
        trace, _ = run_sync_session(SYNC_CFG)
        path = tmp_path / "t.csv"
        export_csv(trace, path)
        header, first = path.read_text().splitlines()[:2]
        assert header == "n,x,y,z,e,epsilon,u,i,i_hat,bit,channel"
        cells = dict(zip(header.split(","), first.split(",")))
        assert cells["z"] == ""
        assert cells["i"] == ""

    def test_special_values_round_trip(self, tmp_path):
        nan, inf = np.nan, np.inf
        columns = {"x": [-0.0, 1e15, 1e-300], "y": [inf, -inf, 0.25], "z": [nan, 2.0],
                   "bit": [1.0]}
        trace = SessionTrace(3, **{name: _padded_copy(3, values)
                                   for name, values in columns.items()})
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        export_csv(trace, p1)
        lines = p1.read_text().splitlines()
        assert lines[1:] == ["0,0,inf,,,,,,,1,", "1,1000000000000000,-inf,2,,,,,,,",
                             "2,1e-300,0.25,,,,,,,,"]
        loaded = load_trace_csv(p1)
        for name in simkit.TRACE_COLUMNS:
            assert np.array_equal(loaded.column(name), trace.column(name), equal_nan=True)
        export_csv(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("cells", [10, 12])
    def test_ragged_row_rejected(self, tmp_path, cells):
        path = tmp_path / "ragged.csv"
        row = ",".join(["1"] * cells)
        path.write_text(",".join(simkit.TRACE_COLUMNS) + f"\n{'0,' * 10}0\n{row}\n")
        with pytest.raises(ValueError, match=f"data row 1 has {cells} cells"):
            load_trace_csv(path)

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            load_trace_csv(path)


# Any float64: every bit pattern (subnormals, +-inf, -0.0, NaN payloads),
# plus values of 18 significant digits ending in 5, which %.17g must round
# at a tie.
FLOAT64 = st.one_of(
    st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072009e-308]),
    st.floats(),
    st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]),
    st.builds(math.ldexp, st.integers(2**52, 2**53 - 1), st.integers(2, 4)),
)


def _bits(values) -> np.ndarray:
    """float64 bit patterns, every NaN as np.nan's."""
    values = np.asarray(values, dtype=float)
    return np.where(np.isnan(values), np.nan, values).view(np.uint64)


def _column_runs(rows: int):
    """A column of up to rows cells, as runs of absent cells and runs of
    FLOAT64 values with NaN holes, so that it is absent from some blocks
    and present in others."""
    def run(present, length):
        if present:
            return st.lists(st.just(math.nan) | FLOAT64, min_size=length, max_size=length)
        return st.just([math.nan] * length)
    runs = st.lists(st.tuples(st.booleans(), st.integers(1, 6)).flatmap(lambda r: run(*r)),
                    max_size=4)
    return runs.map(lambda parts: [v for part in parts for v in part][:rows])


class TestTraceCsvBlocks:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), rows=st.integers(0, 14), block=st.integers(1, 5))
    def test_matches_per_row_oracle(self, tmp_path_factory, data, rows, block):
        columns = {name: _padded_copy(rows, data.draw(_column_runs(rows), label=name))
                   for name in simkit.TRACE_COLUMNS}
        trace = SessionTrace(rows, **columns)
        workdir = tmp_path_factory.mktemp("csv")
        export_csv_oracle(trace, workdir / "oracle.csv")
        with mock.patch.object(simkit, "_CSV_BLOCK", block):
            export_csv(trace, workdir / "t.csv")
        assert (workdir / "t.csv").read_bytes() == (workdir / "oracle.csv").read_bytes()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), rows=st.integers(0, 12), block=st.integers(1, 5))
    def test_arbitrary_columns_round_trip(self, tmp_path_factory, data, rows, block):
        columns = {name: _padded_copy(rows, data.draw(st.lists(FLOAT64, max_size=rows),
                                                      label=name))
                   for name in simkit.TRACE_COLUMNS}
        trace = SessionTrace(rows, **columns)
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        with mock.patch.object(simkit, "_CSV_BLOCK", block):
            export_csv(trace, path)
            loaded = load_trace_csv(path)
        assert len(loaded) == rows
        for name in simkit.TRACE_COLUMNS:
            # -0.0 is written as 0
            assert np.array_equal(_bits(loaded.column(name)),
                                  _bits(trace.column(name) + 0.0))
        # an absent value is an empty cell, and every loaded value is what
        # float() makes of its cell
        text = path.read_bytes().decode()
        assert text.endswith("\r\n") and "nan" not in text
        cells = [line.split(",") for line in text.split("\r\n")[1:-1]]
        expected = [[float(cell) if cell else np.nan for cell in row] for row in cells]
        loaded_rows = np.column_stack([loaded.column(name) for name in simkit.TRACE_COLUMNS])
        assert np.array_equal(_bits(loaded_rows), _bits(np.reshape(expected, (rows, len(simkit.TRACE_COLUMNS)))))
        again = path.with_name("again.csv")
        export_csv(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_header_only_file_is_an_empty_trace(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_csv(SessionTrace(0), path)
        assert path.read_bytes() == b"n,x,y,z,e,epsilon,u,i,i_hat,bit,channel\r\n"
        loaded = load_trace_csv(path)
        assert len(loaded) == 0
        assert all(loaded.column(name).size == 0 for name in simkit.TRACE_COLUMNS)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_line_ends_and_blank_lines(self, tmp_path, newline):
        trace, _ = run_sync_session(replace(SYNC_CFG, steps=9, settle=0))
        path = tmp_path / "a.csv"
        export_csv(trace, path)
        header, *rows = path.read_text().splitlines()
        # blank lines at the start, between rows, across a block boundary
        # and at the end are skipped
        rows = ["", rows[0], "", "", *rows[1:4], "", *rows[4:], "", ""]
        other = tmp_path / "b.csv"
        other.write_bytes(newline.join([header, *rows]).encode())
        with mock.patch.object(simkit, "_CSV_BLOCK", 3):
            loaded = load_trace_csv(other)
        assert len(loaded) == len(trace)
        for name in simkit.TRACE_COLUMNS:
            assert np.array_equal(_bits(loaded.column(name)),
                                  _bits(trace.column(name) + 0.0))

    def test_first_block_all_blank(self, tmp_path):
        trace, _ = run_sync_session(replace(SYNC_CFG, steps=4, settle=0))
        path = tmp_path / "a.csv"
        export_csv(trace, path)
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, "", "", "", *rows]) + "\n")
        with mock.patch.object(simkit, "_CSV_BLOCK", 3):
            loaded = load_trace_csv(path)
        for name in simkit.TRACE_COLUMNS:
            assert np.array_equal(_bits(loaded.column(name)),
                                  _bits(trace.column(name) + 0.0))

    # float() itself takes "1_000" and the fullwidth "１"
    @pytest.mark.parametrize("cell", ["abc", '"1.5"', "1_000", " ", "１"])
    def test_non_numeric_cell_rejected(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(simkit.TRACE_COLUMNS) + f"\n0,{cell},,,,,,,,,\n")
        with pytest.raises(ValueError, match="could not convert"):
            load_trace_csv(path)

    def test_ragged_rows_that_even_out_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text(",".join(simkit.TRACE_COLUMNS) + "\n"
                        + ",".join(["1"] * 12) + "\n" + ",".join(["1"] * 10) + "\n")
        with pytest.raises(ValueError, match="data row 0 has 12 cells, not 11"):
            load_trace_csv(path)

    def test_ragged_rows_that_even_out_in_a_later_block_rejected(self, tmp_path):
        # rows are numbered across blocks, blank lines not counted
        path = tmp_path / "ragged.csv"
        path.write_text(",".join(simkit.TRACE_COLUMNS) + "\n\n"
                        + "\n".join([",".join(["1"] * width) for width in (11, 11, 10, 12)])
                        + "\n")
        with mock.patch.object(simkit, "_CSV_BLOCK", 3):
            with pytest.raises(ValueError, match="data row 2 has 10 cells, not 11"):
                load_trace_csv(path)


class TestMetricsConsistency:
    def test_ber_zero_iff_all_bits_match(self):
        _, metrics = run_transmit_session(TRANSMIT_CFG)
        assert metrics.ber == 0.0
        assert metrics.bit_errors == 0
        bad, metrics_bad = run_transmit_session(
            replace(TRANSMIT_CFG, threshold=0.5)
        )
        assert (metrics_bad.ber == 0.0) == (metrics_bad.bit_errors == 0)

    def test_summary_lines(self):
        _, metrics = run_hop_session(HOP_CFG)
        lines = metrics.summary_lines()
        assert any(line.startswith("channel_error_count:") for line in lines)
        assert any(line.startswith("distinct_channels:") for line in lines)
