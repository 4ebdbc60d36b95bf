"""The kernels against the scalar reference functions, and the whole-stream
digital codec against its per-frame calls."""

from types import SimpleNamespace

import numpy as np
import pytest
from fx_oracle import PairRun, fx_sync_oracle
from hypothesis import given
from hypothesis import strategies as st

from chaoslink import _accel
from chaoslink.bitcodec import FrameSpec, correlate, decide, lsb_bits, mask_bits, spread
from chaoslink.control import ControllerGains, control, step_response
from chaoslink.core import LogisticParams, step
from chaoslink.fixedpoint import FixedParams
from chaoslink.masking import get_operator

STEPS = 200


def open_interval(lo, hi):
    return st.floats(lo, hi, exclude_min=True, exclude_max=True)


@given(
    mu=open_interval(3.0, 4.0),
    rho=open_interval(-0.95, 0.95),
    x0=open_interval(0.05, 0.95),
    y0=st.floats(-1.0, 2.0),
    amplitude=st.floats(0.0, 1.0),
    operator=st.sampled_from(["additive", "multiplicative"]),
    guard=st.sampled_from([1.5, 3.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
    nan_at=st.one_of(st.none(), st.integers(0, STEPS - 1)),
)
def test_response_track_matches_scalar_reference(
    mu, rho, x0, y0, amplitude, operator, guard, seed, nan_at
):
    params = LogisticParams(mu)
    gains = ControllerGains(rho=rho, params=params)
    op = get_operator(operator)
    info = (np.random.default_rng(seed).random(STEPS) < 0.5) * amplitude
    if nan_at is not None:  # a NaN line sample makes the response NaN
        info[nan_at] = np.nan

    x, escape = _accel.logistic_orbit(mu, 1.0, x0, STEPS)
    z = op.forward(x[:-1], info)
    ys, us, diverge = _accel.response_track(mu, 1.0, rho, y0, z, guard)

    ref_x, ref_z, ref_y, ref_u = [x0], [], [y0], []
    for i in info.tolist():
        d = op.forward(ref_x[-1], i)
        y = ref_y[-1]
        ref_z.append(d)
        ref_u.append(control(gains, y - d, d))
        ref_y.append(step_response(gains, y, d))
        ref_x.append(step(params, ref_x[-1]))
    over = [n for n, y in enumerate(ref_y) if n > 0 and not abs(y) <= guard]
    stop = over[0] if over else STEPS

    assert escape == -1
    assert x.tolist() == ref_x
    assert np.array_equal(z, ref_z, equal_nan=True)
    assert diverge == (over[0] if over else -1)
    assert np.array_equal(ys[:stop + 1], ref_y[:stop + 1], equal_nan=True)
    assert np.array_equal(us[:stop], ref_u[:stop], equal_nan=True)


@st.composite
def fixed_runs(draw, k=st.integers(2, 2**15), steps=st.integers(0, STEPS)):
    """Valid (params, x0, y0, steps) for the quantized kernel."""
    frac_bits = draw(st.integers(1, 15))
    frac = 1 << frac_bits
    k = draw(k)
    params = FixedParams(mu_q=draw(st.integers(1, 4 * frac)),
                         rho_q=draw(st.integers(-8 * frac, 8 * frac - 1)),
                         k=k, frac_bits=frac_bits)
    x0 = draw(st.integers(1, k - 1))
    y0 = draw(st.one_of(st.just(x0), st.integers(-(2**15), 2**15 - 1)))
    return params, x0, y0, draw(steps)


def check_fx_sync_run(params, x0, y0, steps):
    xs, ys, *rest = _accel.fx_sync_run(
        params.mu_q, params.rho_q, params.frac, params.k, x0, y0, steps)
    ref = fx_sync_oracle(params, x0, y0, steps)
    assert PairRun(xs.tolist(), ys.tolist(), *rest) == ref
    if ref.first_equal >= 0:  # once equal, the pair stays equal
        assert ref.x[ref.first_equal:] == ref.y[ref.first_equal:]
    return ref


# Small k over long runs reach the drive's cycle, so the tiled branch runs.
@given(st.one_of(fixed_runs(),
                 fixed_runs(k=st.integers(2, 64), steps=st.integers(0, 3000))))
def test_fx_sync_run_matches_stepwise_oracle(case):
    check_fx_sync_run(*case)


def raw(mu_q, rho_q, frac_bits, k):
    """Kernel parameters as FixedParams' fields, unchecked, so a case may
    lie outside the range FixedParams accepts."""
    return SimpleNamespace(mu_q=mu_q, rho_q=rho_q, k=k, frac=1 << frac_bits)


MU37, RHO05 = 15155, 2048  # Q4.12 for mu = 3.7, rho = 0.5


@pytest.mark.parametrize("params, x0, y0, steps, holds", [
    pytest.param(raw(MU37, RHO05, 12, 1024), 122, 122, 3000,
                 lambda r: r.first_equal == 0 and r.period == 2, id="sync-at-0"),
    pytest.param(raw(MU37, 2 * 4096, 12, 1024), 122, -1024, 3000,
                 lambda r: r.first_equal == -1 and r.saturations > 0, id="never-syncs"),
    pytest.param(raw(4 * 4096, 0, 12, 1024), 14, -1024, 3000,
                 lambda r: 0 < r.first_equal < r.escape, id="escape-after-sync"),
    pytest.param(raw(MU37, 3520, 12, 1024), 122, -1024, 3000,
                 lambda r: r.transient < r.first_equal, id="cycle-before-sync"),
    pytest.param(raw(MU37, RHO05, 12, 1024), 122, -1024, 37,
                 lambda r: r.first_equal > 0 and r.period == -1, id="no-cycle-yet"),
    pytest.param(raw(MU37, RHO05, 12, 1024), 122, -1024, 38 + 2 * 500 + 1,
                 lambda r: r.period == 2, id="partial-last-pass"),
    # mu = 4, k = 2**15: 16384 is the only state whose image clips, and it
    # is not on a cycle, so no accepted parameters clip on every pass.
    pytest.param(raw(4 * 4, 0, 2, 2**15), 16384, 16384, 3000,
                 lambda r: r.saturations == 1 and r.transient > 0, id="clip-in-transient"),
    # mu = 4.25 lies outside FixedParams' range; its cycle clips once a pass,
    # and the partial last pass starts on the clipping state.
    pytest.param(raw(17, 1, 2, 2**15), 16384, 0, 3001,
                 lambda r: r.period == 8 and r.saturations >= 3000 // 8, id="clip-every-pass"),
])
def test_fx_sync_run_tiled_cases(params, x0, y0, steps, holds):
    assert holds(check_fx_sync_run(params, x0, y0, steps))


@given(
    n=st.integers(1, 8),
    r=st.integers(1, 8),
    frames=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_whole_stream_codec_matches_per_frame_calls(n, r, frames, seed):
    spec = FrameSpec(m=n * r, n=n)
    rng = np.random.default_rng(seed)
    info = rng.integers(0, 2, frames * n)
    tx = lsb_bits(rng.integers(-(2**15), 2**15, frames * spec.m))
    rx = lsb_bits(rng.integers(-(2**15), 2**15, frames * spec.m))

    line = mask_bits(spread(info, spec), tx)
    soft = correlate(mask_bits(line, rx), spec)

    ref_line, ref_soft = [], []
    for f in range(frames):
        bits, words = slice(f * spec.m, (f + 1) * spec.m), slice(f * n, (f + 1) * n)
        masked = mask_bits(spread(info[words], spec), tx[bits])
        ref_line += masked.tolist()
        ref_soft += correlate(mask_bits(masked, rx[bits]), spec).tolist()

    assert line.tolist() == ref_line
    assert soft.tolist() == ref_soft
    assert decide(soft).tolist() == decide(ref_soft).tolist()
