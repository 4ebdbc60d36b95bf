"""The kernels against the scalar reference functions, and the whole-stream
digital codec against its per-frame calls."""

import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from fx_oracle import PairRun, fx_sync_oracle
from hypothesis import assume, example, given
from hypothesis import strategies as st

from chaoslink import _accel, masking
from chaoslink.bitcodec import FrameSpec, correlate, decide, lsb_bits, mask_bits, spread
from chaoslink.control import ControllerGains, control, step_response
from chaoslink.core import LogisticParams, step
from chaoslink.fixedpoint import FixedParams

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
    info = (np.random.default_rng(seed).random(STEPS) < 0.5) * amplitude
    if nan_at is not None:  # a NaN line sample makes the response NaN
        info[nan_at] = np.nan

    x, escape = _accel.logistic_orbit(mu, 1.0, x0, STEPS)
    z = masking.forward(operator, x[:-1], info)
    ys, us, diverge = _accel.response_track(mu, 1.0, rho, y0, z, guard)

    ref_x, ref_z, ref_y, ref_u = [x0], [], [y0], []
    for i in info.tolist():
        d = masking.forward(operator, ref_x[-1], i)
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


def response_track_oracle(mu, k, rho, y0, z, guard):
    """response_track as one stepwise loop with no exact-sync fast path."""
    ys = np.zeros(z.size + 1)
    us = np.zeros(z.size)
    ys[0] = y = y0
    for n in range(z.size):
        d = float(z[n])
        us[n] = u = _accel.control_effort(mu, k, rho, y - d, d)
        ys[n + 1] = y = mu * y * (1.0 - y / k) + u
        if not abs(y) <= guard:
            return ys, us, n + 1
    return ys, us, -1


def check_response_track(mu, k, rho, y0, z, guard):
    """The kernel against the oracle by bytes, so the sign of a zero counts."""
    ys, us, diverge = _accel.response_track(mu, k, rho, y0, z, guard)
    ref_ys, ref_us, ref_diverge = response_track_oracle(mu, k, rho, y0, z, guard)
    assert diverge == ref_diverge
    assert ys.tobytes() == ref_ys.tobytes()
    assert us.tobytes() == ref_us.tobytes()
    return ys, diverge


def logistic_orbit_oracle(mu, k, x0, n_steps):
    """logistic_orbit as one stepwise loop that stops at the first escape."""
    orbit = np.zeros(n_steps + 1)
    orbit[0] = x = x0
    if not 0.0 < x < k:
        return orbit, 0
    for n in range(1, n_steps + 1):
        orbit[n] = x = mu * x * (1.0 - x / k)
        if not 0.0 < x < k:
            return orbit, n
    return orbit, -1


def check_logistic_orbit(mu, k, x0, steps):
    orbit, escape = _accel.logistic_orbit(mu, k, x0, steps)
    ref, ref_escape = logistic_orbit_oracle(mu, k, x0, steps)
    assert escape == ref_escape
    assert orbit.tobytes() == ref.tobytes()
    return escape


def map_line(mu, k, x0, steps):
    """The map's own orbit from x0, unchecked: negative starts run off to
    -inf, which a basin-checked orbit would stop."""
    line = [x0]
    for _ in range(steps - 1):
        line.append(mu * line[-1] * (1.0 - line[-1] / k))
    return np.array(line[:steps])


def synced_from(ys, z):
    """First n from which the response equals the line to its end, or -1."""
    off = np.flatnonzero(ys[:-1] != z)
    n = off[-1] + 1 if off.size else 0
    return n if n < z.size else -1


PERTURBATIONS = {
    "ulp": lambda v: np.nextafter(v, np.inf),
    "nan": lambda v: np.nan,
    "negative-zero": lambda v: -0.0,
}


@given(
    mu=open_interval(3.6, 4.0),
    rho=st.sampled_from([-0.9, -0.5, 0.0, 0.5, 0.9]) | open_interval(-0.95, 0.95),
    x0=open_interval(0.05, 0.95),
    y0=st.floats(-1.0, 2.0),
    k=st.sampled_from([1.0, 3.0, 1024.0]),
    steps=st.integers(2000, 3000),
    perturb=st.one_of(st.none(), st.tuples(st.sampled_from(sorted(PERTURBATIONS)),
                                           st.integers(300, 1999))),
)
def test_response_track_fast_path_on_idle_lines(mu, rho, x0, y0, k, steps, perturb):
    x, escape = _accel.logistic_orbit(mu, k, x0 * k, steps)
    assume(escape == -1)
    z = x[:-1].copy()
    if perturb is not None:  # knock the response off the line after sync
        kind, at = perturb
        z[at] = PERTURBATIONS[kind](z[at])
    check_response_track(mu, k, rho, y0 * k, z, 3.0 * k)


@given(
    mu=open_interval(3.6, 4.0),
    rho=open_interval(-1.3, 1.3),
    x0=open_interval(0.05, 0.95),
    y0=st.floats(-1.0, 2.0),
    steps=st.integers(0, 3 * _accel._SYNC_CHECK),
    guard=st.sampled_from([1.5, 3.0]) | st.floats(1.0, 1e3),
)
# rho > 1 and y0 = x0 + 1e-8: the error grows as rho**n, so |y| first
# passes the guard (above every earlier |y|, below |y[n]|) at step n, here
# the last step of the first and the second whole block of 1024 steps and
# of a partial last block
@example(mu=3.7, rho=1.022, x0=0.3, y0=0.3 + 1e-8, steps=1500, guard=47.7)
@example(mu=3.7, rho=1.0115, x0=0.3, y0=0.3 + 1e-8, steps=2500, guard=148.0)
@example(mu=3.7, rho=1.0089, x0=0.3, y0=0.3 + 1e-8, steps=2500, guard=42.3)
def test_response_track_matches_stepwise_oracle(mu, rho, x0, y0, steps, guard):
    x, escape = _accel.logistic_orbit(mu, 1.0, x0, steps)
    assume(escape == -1)
    check_response_track(mu, 1.0, rho, y0, x[:-1], guard)


# mu = 0.5 halves the orbit until it underflows to 0 after about 1075 steps
@given(
    mu=open_interval(3.5, 4.5) | st.just(0.5),
    k=st.sampled_from([1.0, 3.0, 1024.0]),
    x0=st.floats(-0.5, 1.5),
    steps=st.integers(0, 3 * _accel._SYNC_CHECK),
)
def test_logistic_orbit_matches_stepwise_oracle(mu, k, x0, steps):
    check_logistic_orbit(mu, k, x0 * k, steps)


# Just above mu = 4 the orbit escapes when it comes near k / 2; these starts
# escape on the last sample of the first and the second block of 1024
# samples, on the first sample of the second and on the last sample of a
# partial last block.  The last case halves 2**-1000 exactly until it
# reaches 0 at step 75.
MU_ESCAPING = 4.0 + 2.0**-20
ORBIT_ESCAPES = [(MU_ESCAPING, 1.0, 0.128071, 1500, 1024),
                 (MU_ESCAPING, 1.0, 0.435366, 1500, 1025),
                 (MU_ESCAPING, 1.0, 0.816887, 2500, 2048),
                 (MU_ESCAPING, 1.0, 0.302843, 2500, 2500),
                 (0.5, 2.0**20, 2.0**-1000, 200, 75)]


@pytest.mark.parametrize("mu, k, x0, steps, escape", ORBIT_ESCAPES)
def test_logistic_orbit_escape_at_block_edges(mu, k, x0, steps, escape):
    assert check_logistic_orbit(mu, k, x0, steps) == escape


BLOCKS = [1, 2, 3, 7, 64, 1024]


@given(
    mu=open_interval(3.5, 4.5) | st.just(MU_ESCAPING),
    rho=open_interval(-1.3, 1.3) | st.sampled_from([-1.3, -0.5, 0.0, 0.5, 1.3]),
    k=st.sampled_from([1.0, 3.0, 1024.0]),
    x0=open_interval(0.0, 1.0),
    y0=st.none() | st.floats(-1.0, 2.0),
    steps=st.integers(0, 2200),
    amplitude=st.sampled_from([0.0, 0.05, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    specials=st.lists(st.tuples(st.floats(0.0, 1.0),
                                st.sampled_from([np.nan, np.inf, -np.inf])),
                      max_size=3),
    guard=st.sampled_from([1.5, 3.0, 1e3, 1e300]),
)
def test_kernels_do_not_depend_on_block_size(
    mu, rho, k, x0, y0, steps, amplitude, seed, specials, guard
):
    # mu above 4 makes orbits escape, MU_ESCAPING often after hundreds of
    # steps.  The line is the map's unchecked orbit, which then runs off to
    # -inf, masked with drawn bits and with NaN or inf samples, so responses
    # diverge inside and outside the exact-sync vector pass.  y0 None starts
    # the response on the line.
    x0 *= k
    line = map_line(mu, k, x0, steps)
    line += k * amplitude * (np.random.default_rng(seed).random(steps) < 0.5)
    for at, value in specials:
        if steps:
            line[int(at * (steps - 1))] = value
    y0 = x0 if y0 is None else y0 * k
    guard *= k
    ref_orbit, ref_escape = logistic_orbit_oracle(mu, k, x0, steps)
    ref_ys, ref_us, ref_diverge = response_track_oracle(mu, k, rho, y0, line, guard)
    for block in BLOCKS:
        with mock.patch.object(_accel, "_SYNC_CHECK", block):
            orbit, escape = _accel.logistic_orbit(mu, k, x0, steps)
            ys, us, diverge = _accel.response_track(mu, k, rho, y0, line, guard)
        assert (escape, diverge) == (ref_escape, ref_diverge), block
        assert orbit.tobytes() == ref_orbit.tobytes(), block
        assert ys.tobytes() == ref_ys.tobytes(), block
        assert us.tobytes() == ref_us.tobytes(), block


def counting(calls, fn, counts):
    """fn, recording counts(*args) of each call in calls."""
    def wrapper(*args):
        calls.append(counts(*args))
        return fn(*args)
    return wrapper


@pytest.mark.parametrize("block", [1, 7, 64, 1024])
@pytest.mark.parametrize("mu, k, x0, steps, escape", ORBIT_ESCAPES)
def test_orbit_steps_at_most_one_block_past_an_escape(
    monkeypatch, block, mu, k, x0, steps, escape
):
    # the orbit's only range is the one each block's comprehension steps over
    stepped = []
    monkeypatch.setattr(_accel, "_SYNC_CHECK", block)
    monkeypatch.setattr(_accel, "range", counting(stepped, range, lambda *a: len(range(*a))),
                        raising=False)
    assert _accel.logistic_orbit(mu, k, x0, steps)[1] == escape
    assert escape <= sum(stepped) < escape + block


@pytest.mark.parametrize("block", [1, 7, 64, 1024])
@pytest.mark.parametrize("rho, steps, guard, nan_at, diverge", [
    # the three block-edge examples of the stepwise-oracle test above
    (1.022, 1500, 47.7, None, 1024),
    (1.0115, 2500, 148.0, None, 2048),
    (1.0089, 2500, 42.3, None, 2500),
    # rho = 1 keeps the error at 1e-8; a NaN line sample makes the next
    # response sample NaN
    (1.0, 2500, 3.0, 1100, 1101),
])
def test_response_steps_at_most_one_block_past_a_divergence(
    monkeypatch, block, rho, steps, guard, nan_at, diverge
):
    # with rho >= 1 the response never meets the line exactly, so every step
    # is a scalar control call in the block loop
    x, _ = _accel.logistic_orbit(3.7, 1.0, 0.3, steps)
    z = x[:-1].copy()
    if nan_at is not None:
        z[nan_at] = np.nan
    y0 = 0.3 + 1e-8
    stepped = []
    monkeypatch.setattr(_accel, "_SYNC_CHECK", block)
    monkeypatch.setattr(_accel, "control_effort", counting(
        stepped, _accel.control_effort, lambda *a: isinstance(a[-1], float)))
    assert _accel.response_track(3.7, 1.0, rho, y0, z, guard)[2] == diverge
    assert diverge <= sum(stepped) < diverge + block


@pytest.mark.parametrize("y0, line", [
    (0.5, [1e300] * 3),  # the first control overflows, in the loop
    (1e300, [1e300] * 3),  # the line's own map overflows, in the vector pass
    (-1e300, [-1e300, 3e299, 7e299]),
    # huge samples late in a stepwise block, after a synced block
    (0.3, np.concatenate([map_line(3.7, 1.0, 0.3, 200), [9e299, -1e300]])),
])
def test_response_track_overflow_is_quiet(y0, line):
    # the loop's Python floats overflow silently; so must the vector passes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rho in (-0.5, 0.5, 3.0):
            check_response_track(3.7, 1.0, rho, y0, np.array(line), 1e308)


@pytest.mark.parametrize("rho", [-0.9, -0.5, 0.0, 0.5, 0.9])
def test_idle_lines_reach_exact_sync(rho):
    x, _ = _accel.logistic_orbit(3.7, 1.0, 0.1, 4000)
    ys, diverge = check_response_track(3.7, 1.0, rho, -1.0, x[:-1], 3.0)
    assert diverge == -1
    assert 0 < synced_from(ys, x[:-1]) < 1000


@given(
    rho=st.sampled_from([-1.3, -0.9, 0.0, 0.5, 1.0]),
    x0=st.floats(-1e-3, -1e-300),
    guard=st.sampled_from([1.0, 1e3, 1e300]),
    steps=st.integers(0, 800),
)
def test_response_track_guard_inside_copied_run(rho, x0, guard, steps):
    # From a negative start the line is the map's own orbit running off to
    # -inf, so the response, equal to it from step 0, follows it in the
    # vector pass until the guard stops it.
    line = map_line(3.7, 1.0, x0, steps + 1)
    _, diverge = check_response_track(3.7, 1.0, rho, x0, line[:-1], guard)
    over = np.flatnonzero(~(np.abs(line[1:]) <= guard))
    assert diverge == (over[0] + 1 if over.size else -1)


# A response equal to the line from step 0 follows it in windows of steps
# [0, W), [W, 3W), [3W, 7W), ...; a sample changed at `at` ends the run on
# step at - 1, here the first or last step of a window or between.  The
# edges of 128-step windows, the block size before 1024, stay as steps
# inside the first window.
W = _accel._SYNC_CHECK


def window_edges(w):
    return [1, w - 1, w, w + 1, 2 * w, 3 * w - 1, 3 * w, 3 * w + 1, 7 * w - 1, 7 * w]


WINDOW_EDGES = sorted(set(window_edges(128) + window_edges(W)))


@pytest.mark.parametrize("at", WINDOW_EDGES)
@pytest.mark.parametrize("kind", sorted(PERTURBATIONS))
@pytest.mark.parametrize("rho", [-0.5, 0.0, 0.9])
def test_response_track_run_ends_at_window_edges(at, kind, rho):
    x, _ = _accel.logistic_orbit(3.9, 1.0, 0.3, 8 * W)
    z = x[:-1].copy()
    z[at] = PERTURBATIONS[kind](z[at])
    check_response_track(3.9, 1.0, rho, 0.3, z, 3.0)


def line_ends(w):
    return [w - 1, w, w + 1, 3 * w, 3 * w + 1, 7 * w]


@pytest.mark.parametrize("steps", sorted({0, 1, 2, *line_ends(128), *line_ends(W)}))
@pytest.mark.parametrize("y0", [0.3, 0.3000000000000001, -1.0])
def test_response_track_line_ends_in_sync(steps, y0):
    x, _ = _accel.logistic_orbit(3.7, 1.0, 0.3, steps)
    ys, diverge = check_response_track(3.7, 1.0, 0.5, y0, x[:-1], 3.0)
    assert diverge == -1
    assert ys.size == steps + 1


@pytest.mark.parametrize("y0, line", [
    (0.0, [0.0]), (-0.0, [0.0]), (0.0, [-0.0]), (-0.0, [-0.0]),
    (0.0, [-0.0] * 200), (-0.0, [-0.0] * 200), (-0.0, [0.0] * 200),
    # the map keeps a zero's sign, so the image of -0.0 differs from a
    # following +0.0 only in its sign bit, and the other way round
    (-0.0, [-0.0] * 200 + [0.0] * 200), (0.0, [0.0] * 200 + [-0.0] * 200),
    (0.5, [0.5]), (0.5, [0.25]), (np.nan, [0.5]), (0.5, [np.nan]),
    (np.inf, [np.inf] * 3), (0.2, [0.2, np.inf, 0.3]),
])
def test_response_track_signed_zero_and_special_lines(y0, line):
    for rho in (-0.5, 0.0, 0.5):
        check_response_track(3.7, 1.0, rho, y0, np.array(line), 3.0)


@given(
    mu=open_interval(3.6, 4.0),
    rho=open_interval(-0.9, 0.9),
    x0=open_interval(0.05, 0.95),
    amplitude=st.sampled_from([1e-17, 0.05, 1.0, 1e300]),
    operator=st.sampled_from(["additive", "multiplicative"]),
    runs=st.lists(st.integers(1, 1500), min_size=1, max_size=6),
)
def test_response_track_transmit_line_with_long_zero_runs(
    mu, rho, x0, amplitude, operator, runs
):
    # Alternating 0- and 1-bit runs: the response syncs exactly in the
    # long 0-bit runs and is knocked off the line by the 1-bit runs.
    info = np.concatenate([np.full(r, amplitude * (j % 2)) for j, r in enumerate(runs)])
    x, escape = _accel.logistic_orbit(mu, 1.0, x0, info.size)
    assume(escape == -1)
    z = masking.forward(operator, x[:-1], info)
    check_response_track(mu, 1.0, rho, -1.0, z, 1e3)


def as_float(*args):
    return tuple(float(a) for a in args)


@pytest.mark.parametrize("mu, k, x0", [
    (np.float64(3.7), np.float64(1.0), np.float64(0.3)),
    (np.float64(3.7), 1, np.float64(0.3)),
    (4, 1024, 122),
])
def test_logistic_orbit_scalar_argument_types(mu, k, x0):
    orbit, escape = _accel.logistic_orbit(mu, k, x0, 500)
    ref, ref_escape = _accel.logistic_orbit(*as_float(mu, k, x0), 500)
    assert escape == ref_escape
    assert orbit.tobytes() == ref.tobytes()


@pytest.mark.parametrize("mu, k, rho, y0", [
    (np.float64(3.7), np.float64(1.0), np.float64(0.5), np.float64(-1.0)),
    (np.float64(3.7), 1, 0, -1),
    (np.float64(3.9), 1024, np.float64(-0.5), 300),
])
def test_response_track_scalar_argument_types(mu, k, rho, y0):
    x, _ = _accel.logistic_orbit(float(mu), float(k), 0.3 * k, 2000)
    z = x[:-1].copy()
    z[1000] += 1e-3 * k  # knock the response off the line after sync
    ys, us, diverge = _accel.response_track(mu, k, rho, y0, z, 3.0 * k)
    ref_ys, ref_us, ref_diverge = _accel.response_track(
        *as_float(mu, k, rho, y0), z, 3.0 * k)
    assert diverge == ref_diverge
    assert ys.tobytes() == ref_ys.tobytes()
    assert us.tobytes() == ref_us.tobytes()


def assert_samples(a, size):
    assert type(a) is np.ndarray
    assert a.dtype == np.float64
    assert a.shape == (size,)


@pytest.mark.parametrize("mu, k, x0, steps, escape", [
    (3.7, 1.0, 1.5, 10, 0),  # escape at x0
    (4.5, 1.0, 0.5, 10, 1),  # escape mid-run
    (3.7, 1.0, 0.3, 10, -1),
    (3.7, 1.0, 0.3, 0, -1),
    (4, 1024, 122, 0, -1),  # an int start is still a float sample
    (4, 1024, 2048, 0, 0),
])
def test_logistic_orbit_returns_arrays(mu, k, x0, steps, escape):
    orbit, at = _accel.logistic_orbit(mu, k, x0, steps)
    assert at == escape
    assert_samples(orbit, steps + 1)


@pytest.mark.parametrize("y0, line, diverges", [
    (10.0, np.full(3 * W, 0.3), True),  # in the stepwise loop
    # inside a vector pass: the map's own orbit, run off to -inf
    (-1e-3, map_line(3.7, 1.0, -1e-3, 3 * W), True),
    (-1.0, map_line(3.7, 1.0, 0.3, 3 * W), False),  # ends in sync
    (-1.0, map_line(3.7, 1.0, 0.3, W - 1), False),  # stepwise to the end
    (-1.0, np.zeros(0), False),
    (-1, np.zeros(0), False),  # an int start is still a float sample
])
def test_response_track_returns_arrays(y0, line, diverges):
    ys, us, diverge = _accel.response_track(3.7, 1.0, 0.5, y0, line, 3.0)
    assert (diverge >= 0) == diverges
    assert_samples(ys, line.size + 1)
    assert_samples(us, line.size)


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


@pytest.mark.parametrize("x0, y0, rho, escape", [
    # x: 0.146... -> 0.5 -> 1.0; with rho = 0 the innovation at row 1 would
    # end the idle phase (window 1) on the step to row 2
    ((1.0 - np.sqrt(0.5)) / 2.0, -1.0, 0.0, 2),
    # x: 0.5 -> 1.0, while the response passes the guard on the same step
    (0.5, 999.0, 3.0, 1),
])
def test_hop_run_escape_beats_a_trigger_or_guard(x0, y0, rho, escape):
    [(xs, ys, hops, fail)] = _accel.hop_run(
        4.0, 1.0, rho, x0, y0, 1, 1.0, 0.0, np.zeros(3, dtype=np.uint8), 3, 1, 1e-6,
        1e3, True, 10_000, 8)
    # the one chunk ends with the escaped drive sample
    assert (ys.size, hops, fail, xs[-1]) == (escape + 1, [], _accel.ESCAPED, 1.0)
    assert xs.tolist() == _accel.logistic_orbit(4.0, 1.0, x0, escape)[0].tolist()
    # the rows are idle, so their line is the drive: the session's control
    # column is the law on each row
    u = _accel.control_column(4.0, 1.0, rho, ys, xs, escape)
    assert u[:escape].tolist() == [_accel.control_effort(4.0, 1.0, rho, y - d, d)
                                   for d, y in zip(xs[:-1].tolist(), ys[:-1].tolist())]


def test_hop_run_of_no_sessions_is_its_start():
    chunks = list(_accel.hop_run(3.7, 1.0, 0.5, 0.1, -1.0, 0, 1.0, 0.0,
                                 np.zeros(0, dtype=np.uint8), 40, 5, 1e-6, 1e3, True,
                                 10_000, 4096))
    assert len(chunks) == 1
    xs, ys, hops, fail = chunks[0]
    assert (xs.tolist(), ys.tolist(), hops, fail) == ([0.1], [-1.0], [], 0)
    assert (xs.dtype, ys.dtype) == (np.float64, np.float64)


def test_hop_run_holds_one_chunk_of_rows():
    # 300 masked sessions, about 20 000 rows, read a chunk at a time: the
    # rows in flight peak at about 0.4 MiB, against 1.7 MiB for the same
    # run in one chunk
    pick = np.random.default_rng(5).integers(0, 2, 300 * 40).astype(np.uint8)
    chunks = _accel.hop_run(3.7, 1.0, 0.5, 0.1, -1.0, 300, 1.0, 1.0, pick, 40, 5, 1e-6,
                            1e3, True, 10_000, 4096)
    rows = 0
    tracemalloc.start()
    try:
        for xs, *_ in chunks:
            rows += xs.size
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows > 16_000
    assert peak < 2**20


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
