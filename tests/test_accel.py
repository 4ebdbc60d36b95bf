"""The kernels against the scalar reference functions, and the whole-stream
digital codec against its per-frame calls."""

import ast
import importlib.util
import math
import re
import tracemalloc
import traceback
import warnings
from pathlib import Path
from types import CodeType, SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from fx_oracle import PairRun, fx_sync_oracle
from hypothesis import assume, example, given
from hypothesis import strategies as st
from law_oracle import ControllerGains, control, law, step_response

from chaoslink import _accel, masking
from chaoslink.bitcodec import FrameSpec, correlate, decide, lsb_bits, mask_bits, spread
from chaoslink.core import LogisticParams, step
from chaoslink.fixedpoint import FixedParams

STEPS = 200


def open_interval(lo, hi):
    return st.floats(lo, hi, exclude_min=True, exclude_max=True)


def response_track(mu, k, rho, y0, z, guard):
    """The response's states and its control column over the stepped rows,
    the two kernel calls simkit._receive makes: (ys, us, diverge_index), with
    ys and diverge_index those of response_states, and us of z's length,
    us[n] the control on the n -> n+1 transition, 0 past a divergence."""
    ys, diverge = _accel.response_states(mu, k, rho, y0, z, guard)
    rows = z.size if diverge < 0 else diverge
    us = np.zeros(z.size)
    us[:rows] = _accel.control_column(mu, k, rho, ys[:rows], z[:rows])
    return ys, us, diverge


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
    ys, us, diverge = response_track(mu, 1.0, rho, y0, z, guard)

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
        us[n] = u = law(mu, k, rho, y - d, d)
        ys[n + 1] = y = mu * y * (1.0 - y / k) + u
        if not abs(y) <= guard:
            return ys, us, n + 1
    return ys, us, -1


def check_response_track(mu, k, rho, y0, z, guard):
    """The kernel against the oracle by bytes, so the sign of a zero counts."""
    ys, us, diverge = response_track(mu, k, rho, y0, z, guard)
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
            ys, us, diverge = response_track(mu, k, rho, y0, line, guard)
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
    # is a line sample handed to the block stepper
    x, _ = _accel.logistic_orbit(3.7, 1.0, 0.3, steps)
    z = x[:-1].copy()
    if nan_at is not None:
        z[nan_at] = np.nan
    y0 = 0.3 + 1e-8
    stepped = []
    monkeypatch.setattr(_accel, "_SYNC_CHECK", block)
    monkeypatch.setattr(_accel, "_response_block", counting(
        stepped, _accel._response_block, lambda mu, k, gain, y, ds: len(ds)))
    assert response_track(3.7, 1.0, rho, y0, z, guard)[2] == diverge
    assert diverge <= sum(stepped) < diverge + block


# signed zeros, the smallest subnormals, the extremes, infinities and NaN
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308,
               math.inf, -math.inf, math.nan]
any_float = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())


def float_bytes_or_error(step):
    """The bytes of step()'s floats, or the type of the error it raised."""
    try:
        return np.array(step(), dtype=np.float64).tobytes()
    except ZeroDivisionError as error:  # k = 0
        return type(error)


def one_nan(values):
    """values as float64 with every NaN the same NaN.  Where two NaNs of
    opposite sign meet, the sign bit that wins depends on the operand order
    of the compiled operation (CPython's generic or float-specialized add,
    numpy's vector loop or its scalar tail), not on the formula; a trace
    writes either as nan."""
    values = np.array(values, dtype=np.float64)
    values[np.isnan(values)] = np.nan
    return values


@given(mu=any_float, k=any_float, rho=any_float, y=any_float,
       ds=st.lists(any_float, max_size=40))
def test_response_block_is_the_scalar_law_loop(mu, k, rho, y, ds):
    # the steps take the law's gain rho * k, computed once by _gain; the
    # reference law takes rho, and any float, where control validates gains
    gain = _accel._gain(rho, k)

    def scalar_loop():
        states, state = [], y
        for d in ds:
            state = (mu * state * (1.0 - state / k)
                     + law(mu, k, rho, state - d, d))
            states.append(state)
        return states

    assert (float_bytes_or_error(lambda: one_nan(_accel._response_block(mu, k, gain, y, ds)))
            == float_bytes_or_error(lambda: one_nan(scalar_loop())))
    # one step on Python floats, and on a float64 line in exact sync, whose
    # error 0.0 gives the bits of the error d - d
    assert (float_bytes_or_error(lambda: one_nan(
                [_accel._response_step(mu, k, gain, y, y - d, d) for d in ds]))
            == float_bytes_or_error(lambda: one_nan(
                [mu * y * (1.0 - y / k) + law(mu, k, rho, y - d, d)
                 for d in ds])))
    line = np.array(ds + [y])
    with np.errstate(all="ignore"):  # _accel.quiet's, and numpy's division by k = 0
        assert (one_nan(_accel._response_step(mu, k, gain, line, 0.0, line)).tobytes()
                == one_nan(mu * line * (1.0 - line / k)
                           + law(mu, k, rho, line - line, line)).tobytes())


def operations(tree, op, left, right):
    """The operations left op right written in tree's code."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, op)
            and ast.unparse(node.left) == left and ast.unparse(node.right) == right]


ACCEL = ast.parse(Path(_accel.__file__).read_text())


def written(name, tree=ACCEL):
    """The def of the function name as written in tree, by default _accel.py."""
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def float_laws(tree):
    """The expressions _law(...) / k written in tree's code."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and isinstance(node.left, ast.Call) and ast.unparse(node.left.func) == "_law"
            and ast.unparse(node.right) == "k"]


def test_float_law_is_written_once():
    # the law's gain rho * k appears once in _accel.py, in _gain, and its
    # term d + d once, in _law, which both arithmetics use: fx_sync_run
    # writes no rho... * k, 2 * ... or doubling of its own
    for op, left, right, step in [(ast.Mult, "rho", "k", "_gain"), (ast.Add, "d", "d", "_law")]:
        assert len(operations(ACCEL, op, left, right)) == 1
        assert len(operations(written(step), op, left, right)) == 1
    assert not [node for node in ast.walk(written("fx_sync_run")) if isinstance(node, ast.BinOp)
                and re.fullmatch(r"rho\w* \* k|2 \* \w+|(\w+) \+ \1", ast.unparse(node))]
    # the float law u = _law(...) / k appears once, in control_effort, which
    # takes the gain and which the response step calls
    assert len(float_laws(ACCEL)) == len(float_laws(written("control_effort"))) == 1
    assert written("control_effort").args.args[2].arg == "gain"
    assert "control_effort" in calls(written("_response_step"))
    # each kernel computes the gain once per run, before its loops, and so
    # does the control column
    for kernel in ("response_states", "hop_run", "fx_sync_run", "control_column"):
        assert "_gain" in calls(written(kernel))
        for loop in ast.walk(written(kernel)):
            if isinstance(loop, LOOPS):
                assert "_gain" not in calls(loop), kernel


def map_factors(tree):
    """The expressions 1.0 - <name> / k written in tree's code."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and ast.unparse(node.left) == "1.0"
            and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Div)
            and isinstance(node.right.left, ast.Name) and ast.unparse(node.right.right) == "k"]


def fx_map_factors(tree):
    """The expressions k - <name> written in tree's code."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and ast.unparse(node.left) == "k" and isinstance(node.right, ast.Name)]


def test_float_map_is_written_once():
    # the map's factor 1.0 - x / k appears once in _accel.py, in _map_step;
    # the integer map's factor k - x once too, in _fx_map
    for factors, step in [(map_factors, "_map_step"), (fx_map_factors, "_fx_map")]:
        assert len(factors(ACCEL)) == 1
        assert len(factors(written(step))) == 1


def bounds_read(tree):
    """The reads of I16_MAX and I16_MIN in tree's code."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load) and node.id in ("I16_MAX", "I16_MIN")]


def test_clamp_is_written_once():
    # the 16-bit bounds are read in _accel.py only by _saturated, so
    # fx_sync_run clamps its drive and its response with it alone
    assert len(bounds_read(ACCEL)) == len(bounds_read(written("_saturated"))) == 4


def masked_lines(tree):
    """The expressions <expr> * scale + offset written in tree's code."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and ast.unparse(node.right) == "offset" and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, ast.Mult) and ast.unparse(node.left.right) == "scale"]


def test_line_is_written_once():
    # the masked line x * scale + offset appears once in the package, in
    # _line, which masking.forward and hop_run both call
    found = {path.name: len(masked_lines(ast.parse(path.read_text())))
             for path in Path(_accel.__file__).parent.glob("*.py")}
    assert {name: count for name, count in found.items() if count} == {"_accel.py": 1}
    assert len(masked_lines(written("_line"))) == 1
    forward = written("forward", ast.parse(Path(masking.__file__).read_text()))
    assert "_line" in calls(forward) and "_line" in calls(written("hop_run"))


def test_float_kernels_pack_their_blocks():
    # no kernel moves Python floats into numpy with np.fromiter; the float
    # kernels pack each block with _packed
    assert "fromiter" not in {node.attr for node in ast.walk(ACCEL)
                              if isinstance(node, ast.Attribute)}
    for kernel in ("logistic_orbit", "response_states", "hop_run"):
        assert "_packed" in calls(written(kernel)), kernel


SIGN = 1 << 63
EXPONENT = 0x7FF << 52  # all ones: an infinity or a NaN
MANTISSA = (1 << 52) - 1


@st.composite
def float_words(draw):
    """The 64-bit words of up to two blocks of floats and one more: random
    words, with NaNs of either sign and any payload, quiet or signaling,
    signed zeros, infinities and subnormals put in."""
    size = draw(st.integers(0, 2 * _accel._SYNC_CHECK + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    words = np.frombuffer(rng.bytes(8 * size), dtype=np.uint64).copy()
    edges = st.tuples(st.integers(0, 2**16), st.booleans(), st.integers(1, MANTISSA),
                      st.sampled_from(["nan", "zero", "inf", "subnormal"]))
    for at, negative, payload, kind in draw(st.lists(edges, max_size=16 if size else 0)):
        word = {"nan": EXPONENT | payload, "zero": 0, "inf": EXPONENT, "subnormal": payload}[kind]
        words[at % size] = word | (SIGN if negative else 0)
    return words


@given(words=float_words())
def test_packed_keeps_the_bytes_of_every_float(words):
    # one struct.pack call gives the bytes numpy gives the same Python
    # floats, NaN payloads and signs, signed zeros and subnormals included,
    # as a read-only array
    values = words.view(np.float64).tolist()
    packed = _accel._packed(values)
    assert packed.dtype == np.float64 and packed.shape == (len(values),)
    assert not packed.flags.writeable
    assert packed.tobytes() == np.array(values, dtype=np.float64).tobytes() == words.tobytes()


def test_steps_are_the_one_return_functions():
    # every function of _accel.py whose body is one return, after its
    # docstring if any, is a step, recorded with its parameters, but the
    # block steppers, whose walrus would bind a caller's names; both
    # kernels are written with calls of steps
    steps = {node.name: [arg.arg for arg in node.args.args] for node in ACCEL.body
             if isinstance(node, ast.FunctionDef) and isinstance(node.body[-1], ast.Return)
             and len(node.body) == 1 + (ast.get_docstring(node) is not None)}
    assert {"_orbit_block", "_response_block"} <= set(steps)
    del steps["_orbit_block"], steps["_response_block"]
    assert {name: params for name, (params, _) in _accel._STEPS.items()} == steps
    assert {"hop_run", "fx_sync_run"} <= set(STEPPERS)


def names(code):
    """The names code and the code nested in it use."""
    return set(code.co_names).union(*(names(const) for const in code.co_consts
                                      if isinstance(const, CodeType)))


def calls(node):
    """The names of the functions node's code calls by name."""
    return {call.func.id for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}


STEPPERS = [node.name for node in ACCEL.body if isinstance(node, ast.FunctionDef)
            and "_inlined" in map(ast.unparse, node.decorator_list)
            and calls(node) & set(_accel._STEPS)]


def test_every_public_kernel_has_a_caller_in_the_package():
    # each public function of _accel.py is called by name from another
    # function of _accel.py, or from another module of the package, so the
    # package holds no kernel that only the tests run
    public = {node.name for node in ACCEL.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    called = set()
    for node in ACCEL.body:
        if isinstance(node, ast.FunctionDef):
            called |= calls(node) - {node.name}
    for path in Path(_accel.__file__).parent.glob("*.py"):
        if path.name == "_accel.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "_accel"
                    for alias in node.names}
        called |= calls(tree) & imported
        called |= {call.func.attr for call in ast.walk(tree) if isinstance(call, ast.Call)
                   and isinstance(call.func, ast.Attribute)
                   and ast.unparse(call.func.value) == "_accel"}
    assert public and sorted(public - called) == []


# the steps each kernel is written with, so neither writes a formula of its own
KERNEL_STEPS = {"hop_run": {"_gain", "_map_step", "_response_step", "_line"},
                "fx_sync_run": {"_gain", "_fx_map_step", "_fx_response_step", "_saturated"}}


@pytest.mark.parametrize("name", STEPPERS)
def test_hop_run_is_built_with_its_steps_inlined(name):
    # a function written with calls of steps is built at import with their
    # bodies in place of the calls, nested code included, and keeps this
    # file and its def line
    source = written(name)
    assert KERNEL_STEPS.get(name, set()) <= calls(source)
    code = getattr(_accel, name).__code__
    assert not set(_accel._STEPS) & names(code)
    assert Path(code.co_filename).name == "_accel.py"
    assert code.co_firstlineno == source.lineno


PROBE = '''

@_inlined
def _probe(a):
    b = _gain(a, 2.0)
# a comment at column 0 inside the def
    return b + 1.0
'''


def test_build_takes_each_def_whole(tmp_path):
    # the build takes each def from one parse of the file, so a comment at
    # column 0 inside a def does not cut it short; each @_inlined takes its
    # own def, and the parse leaves nothing behind
    path = tmp_path / "_accel.py"
    path.write_text(Path(_accel.__file__).read_text() + PROBE)
    spec = importlib.util.spec_from_file_location("_accel_probe", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module._probe(3.0) == 7.0
    assert "_probe" not in module._STEPS
    assert module._DEFS == _accel._DEFS == {}


@pytest.mark.parametrize("name, args", [
    ("control_effort", (3.7, 0.0, 0.5, 0.1, 0.2)),
    ("_fx_map_step", (15155, 1024, 122, 0)),
    ("_response_block", (3.7, 0.0, 0.5, 0.3, [0.2])),
])
def test_a_failing_step_reports_its_own_return_line(name, args):
    # the last frame of the traceback is the step's return line in
    # _accel.py, where the inlined steps it calls now stand
    with pytest.raises(ZeroDivisionError) as info:
        getattr(_accel, name)(*args)
    frame = traceback.extract_tb(info.value.__traceback__)[-1]
    assert Path(frame.filename).name == "_accel.py"
    assert frame.lineno == written(name).body[-1].lineno


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
    # Each line is shorter than one block.  A line that the response
    # follows bit for bit from step 0, up to its end or the divergence, is
    # one vector pass with no _response_block call; any other takes one.
    z = np.array(line)
    for rho in (-0.5, 0.0, 0.5):
        with mock.patch.object(_accel, "_response_block",
                               wraps=_accel._response_block) as stepper:
            ys, diverge = check_response_track(3.7, 1.0, rho, y0, z, 3.0)
        stop = z.size if diverge < 0 else diverge
        followed = ys[:stop].tobytes() == z[:stop].tobytes()
        assert stepper.call_count == (0 if followed else 1)


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
    ys, us, diverge = response_track(mu, k, rho, y0, z, 3.0 * k)
    ref_ys, ref_us, ref_diverge = response_track(
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
    ys, us, diverge = response_track(3.7, 1.0, 0.5, y0, line, 3.0)
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
        4.0, 1.0, rho, x0, y0, 1.0, 0.0, np.zeros(3, dtype=np.uint8), 3, 1, 1e-6, 1e3, True)
    # the one chunk ends with the escaped drive sample
    assert (ys.size, hops, fail, xs[-1]) == (escape + 1, [], _accel.ESCAPED, 1.0)
    assert xs.tolist() == _accel.logistic_orbit(4.0, 1.0, x0, escape)[0].tolist()
    # the rows are idle, so their line is the drive: the session's control
    # column is the law on each row
    u = _accel.control_column(4.0, 1.0, rho, ys[:escape], xs[:escape])
    assert u[:escape].tolist() == [law(4.0, 1.0, rho, y - d, d)
                                   for d, y in zip(xs[:-1].tolist(), ys[:-1].tolist())]


def test_hop_run_of_no_sessions_is_its_start():
    chunks = list(_accel.hop_run(3.7, 1.0, 0.5, 0.1, -1.0, 1.0, 0.0,
                                 np.zeros(0, dtype=np.uint8), 40, 5, 1e-6, 1e3, True))
    assert len(chunks) == 1
    xs, ys, hops, fail = chunks[0]
    assert (xs.tolist(), ys.tolist(), hops, fail) == ([0.1], [-1.0], [], 0)
    assert (xs.dtype, ys.dtype) == (np.float64, np.float64)


def test_hop_run_holds_one_chunk_of_rows():
    # 300 masked sessions, about 20 000 rows, read a chunk at a time: the
    # rows in flight peak at about 0.4 MiB, against 1.7 MiB for the same
    # run in one chunk
    pick = np.random.default_rng(5).integers(0, 2, 300 * 40).astype(np.uint8)
    chunks = _accel.hop_run(3.7, 1.0, 0.5, 0.1, -1.0, 1.0, 1.0, pick, 40, 5, 1e-6, 1e3,
                            True)
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
