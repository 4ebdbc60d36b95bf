"""The kernels against the scalar reference functions, and the whole-stream
digital codec against its per-frame calls."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from chaoslink import _accel
from chaoslink.bitcodec import FrameSpec, correlate, decide, lsb_bits, mask_bits, spread
from chaoslink.control import ControllerGains, control, step_response
from chaoslink.core import LogisticParams, step
from chaoslink.fixedpoint import FixedParams, fx_step, saturate16
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
def fixed_runs(draw):
    """Valid (params, x0, y0, steps) for the quantized kernel."""
    frac_bits = draw(st.integers(1, 15))
    frac = 1 << frac_bits
    k = draw(st.integers(2, 2**15))
    params = FixedParams(mu_q=draw(st.integers(1, 4 * frac)),
                         rho_q=draw(st.integers(-8 * frac, 8 * frac - 1)),
                         k=k, frac_bits=frac_bits)
    x0 = draw(st.integers(1, k - 1))
    y0 = draw(st.one_of(st.just(x0), st.integers(-(2**15), 2**15 - 1)))
    return params, x0, y0, draw(st.integers(0, STEPS))


@given(fixed_runs())
def test_fx_sync_run_matches_stepwise_oracle(case):
    params, x0, y0, steps = case
    k, frac = params.k, params.frac
    xs, ys, first, escape, saturations = _accel.fx_sync_run(
        params.mu_q, params.rho_q, frac, k, x0, y0, steps)

    ref_x, ref_y, ref_sat, ref_escape = [x0], [y0], 0, -1
    for n in range(steps):
        x, y = ref_x[-1], ref_y[-1]
        e = y - x
        wide = params.mu_q * y * (k - y) + (params.mu_q * (e + 2 * x - k) + params.rho_q * k) * e
        y, clipped = saturate16(wide // (frac * k))
        ref_sat += clipped
        ref_x.append(fx_step(params, x))
        ref_y.append(y)
        if not 0 < ref_x[-1] < k:
            ref_escape = n + 1
            break
    equal = [n for n, (x, y) in enumerate(zip(ref_x, ref_y)) if x == y]
    tail = steps + 1 - len(ref_x)

    assert escape == ref_escape
    assert xs.tolist() == ref_x + [0] * tail
    assert ys.tolist() == ref_y + [0] * tail
    assert first == (equal[0] if equal else -1)
    assert saturations == ref_sat
    if equal:  # once equal, the pair stays equal
        assert ref_x[equal[0]:] == ref_y[equal[0]:]


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
