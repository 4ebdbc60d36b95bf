"""Hot inner loops, as pure Python/numpy.

No session steps a sample in Python outside these kernels.  Each of the
six formulas is written once, as a step, a function whose body is one
return: the float map, the integer map's numerator, the feedback law's
gain rho*k and its numerator, both shared by both arithmetics, the
16-bit clamp and the masked line x * scale + offset, which
chaoslink.masking.forward calls too.  The other steps and the hop and
16-bit kernels are written as calls of these, and @_inlined compiles
each again at import with the steps' expressions in place of the calls,
so no sample pays a Python call for a step.  A kernel computes the gain
once per run, before its loop.

The float kernels step a block at a time in one list comprehension and
test the block once in numpy, so a failing run does at most one block of
work past the failure; Python floats overflow to inf and NaN without a
warning, so that work is quiet.  A block of Python floats goes into
numpy as one packed transfer, _packed, which copies each float's eight
bytes as they are.
"""

import ast
import math
import struct

import numpy as np


I16_MIN = -32768
I16_MAX = 32767
_SYNC_CHECK = 1024  # steps per block; the response checks exact sync between blocks
_SYNC_PROBE_MAX = 1 << 16  # widest exact-sync block of the response
_HOP_CHUNK = 4096  # rows after which hop_run yields at the next session's end
MAX_IDLE_STEPS = 10_000  # idle steps past which a hop phase without a trigger stops the run

# An exact-sync block may run past the sync into huge or infinite line
# samples, and a control column may hold huge or infinite states: numpy
# warns on their overflow and inf - inf, the loops' Python floats do not.
# Used only as a decorator, which may nest (a decorated function may call
# another): a `with quiet:` inside another raises TypeError, as
# np.errstate cannot be entered twice (numpy 2.4.6).
quiet = np.errstate(over="ignore", invalid="ignore")


def logistic_orbit(mu, k, x0, n_steps):
    """Iterate the map, recording n_steps+1 samples.

    Returns (orbit, escape_index); escape_index is the index of the first
    sample outside the open basin (0, k), or -1 if none.  Samples past an
    escape are left at 0.
    """
    mu = float(mu)
    k = float(k)
    x = float(x0)
    orbit = np.zeros(n_steps + 1)
    orbit[0] = x
    if not 0.0 < x < k:
        return orbit, 0
    n = 1
    while n <= n_steps:
        end = min(n + _SYNC_CHECK, n_steps + 1)
        block = _packed(_orbit_block(mu, k, x, end - n))
        orbit[n:end] = block
        x = float(block[-1])
        inside = (block > 0.0) & (block < k)
        if not inside.all():
            escape = n + int(np.flatnonzero(~inside)[0])
            orbit[escape + 1:end] = 0.0
            return orbit, escape
        n = end
    return orbit, -1


_STEPS = {}  # name: (parameters, return expression) of each step, its calls inlined
# each @_inlined def of this file, by name, from one parse; @_inlined takes its own
with open(__file__, encoding="utf-8") as _source:
    _DEFS = {n.name: n for n in ast.parse(_source.read()).body if isinstance(n, ast.FunctionDef)
             and "_inlined" in map(ast.unparse, n.decorator_list)}


class _Inline(ast.NodeTransformer):
    """Replaces each call of a step with the step's return expression, the
    call's arguments put in for its parameters.  An argument is put in at
    each place of its parameter, so a call passes a name for a parameter
    that the step uses more than once."""

    def __init__(self, args):
        self.args = args  # parameter: argument, in a step being put in

    def visit_Name(self, node):
        return self.args.get(node.id, node)

    def visit_Call(self, call):
        self.generic_visit(call)
        if not (isinstance(call.func, ast.Name) and call.func.id in _STEPS):
            return call
        params, body = _STEPS[call.func.id]
        expr = _Inline(dict(zip(params, call.args))).visit(ast.parse(body, mode="eval").body)
        for node in ast.walk(expr):
            ast.copy_location(node, call)
        return expr


def _inlined(fn):
    """fn compiled again from its own def in this file, taken from _DEFS,
    with each call of a step replaced by the step's return expression, so
    a step pays no Python call; the code keeps this file's name and line
    numbers, and an inlined expression takes its call's.  A function whose
    body is one return, after its docstring if any, becomes a step itself,
    unless the return holds a walrus or a comprehension: put in a caller,
    a walrus would bind the caller's names."""
    node = _DEFS.pop(fn.__name__)
    node.decorator_list = []
    _Inline({}).visit(node)
    match node.body:
        case [ast.Expr(ast.Constant(str())), ast.Return(expr)] | [ast.Return(expr)] if not any(
                isinstance(n, (ast.NamedExpr, ast.comprehension)) for n in ast.walk(expr)):
            _STEPS[fn.__name__] = [arg.arg for arg in node.args.args], ast.unparse(expr)
    namespace = {}
    exec(compile(ast.Module([node], []), __file__, "exec"), globals(), namespace)
    return namespace[fn.__name__]


@_inlined
def _map_step(mu, k, x):
    """The state of the map x = mu*x*(1 - x/k) after x."""
    return mu * x * (1.0 - x / k)


@_inlined
def _fx_map(mu, k, x):
    """The integer map's numerator mu*x*(k - x) of a 16-bit state x."""
    return mu * x * (k - x)


@_inlined
def _gain(rho, k):
    """The feedback law's gain rho*k, the same on every step of a run."""
    return rho * k


# 2d is written d + d, exact in both arithmetics and on floats the bits of
# 2.0 * d; 2 * d would multiply an int by a float, which CPython does not
# specialize, and cost the float response loop about 10%.
@_inlined
def _law(mu, k, gain, e, d):
    """The feedback law's numerator [mu(e + 2d - k) + gain] * e, gain the
    _gain of rho and k: the float law divides it by k, the integer
    response sums it with the integer map before its one division."""
    return (mu * (e + (d + d) - k) + gain) * e


@_inlined
def _saturated(v):
    """The integer v clamped to the signed 16-bit range."""
    return I16_MAX if v > I16_MAX else I16_MIN if v < I16_MIN else v


@_inlined
def _line(x, scale, offset):
    """The line sample x * scale + offset of drive state x: every masking
    operator is affine in x, with its own scale and offset."""
    return x * scale + offset


@_inlined
def _packed(values):
    """The Python floats values as a read-only float64 array, in one
    struct.pack call: the native format d copies each float's eight bytes
    as they are, NaN payloads and signed zeros included."""
    return np.frombuffer(struct.pack(f"{len(values)}d", *values))


@_inlined
def control_effort(mu, k, gain, e, d):
    """The float feedback law u = [mu(e + 2d - k) + gain] * e / k for error
    e against the drive-side sample d, gain the _gain of rho and k; it
    makes the error e' = rho*e.  tests/law_oracle.py writes the law out on
    its own as the tests' reference, with the paper's stability
    argument."""
    return _law(mu, k, gain, e, d) / k


@_inlined
def _orbit_block(mu, k, x, n):
    """The n states of the map after x, as Python floats."""
    return [x := _map_step(mu, k, x) for _ in range(n)]


@_inlined
def _response_step(mu, k, gain, y, e, d):
    """The response state after y on line sample d with error e, on scalars
    or float64 arrays, gain the _gain of rho and k: the map plus the
    control law."""
    return _map_step(mu, k, y) + control_effort(mu, k, gain, e, d)


@_inlined
def _response_block(mu, k, gain, y, ds):
    """The response states after each line sample d of ds, from state y,
    as Python floats.  y - d is computed at both places of the error, the
    same bits as a once-computed error."""
    return [y := _response_step(mu, k, gain, y, y - d, d) for d in ds]


@_inlined
def _fx_map_step(mu, k, x, denom):
    """The integer map of a 16-bit state x over denom, before saturation."""
    return _fx_map(mu, k, x) // denom


@_inlined
def _fx_response_step(mu, k, gain, y, e, d, denom):
    """The integer response after y on the drive-side value d with error e,
    before saturation: the map's and the law's numerators in one wide
    integer, floor-divided by denom once; gain is the _gain of rho and k."""
    return (_fx_map(mu, k, y) + _law(mu, k, gain, e, d)) // denom


@quiet
def control_column(mu, k, rho, y, z):
    """The control a loop applied with response samples y against line
    samples z of the same length, row by row, as one vector call of
    control_effort.  The call does the loop step's float64 operations in
    the same order, so the column is bit for bit the loop's control."""
    mu, k = float(mu), float(k)
    return control_effort(mu, k, _gain(float(rho), k), y - z, z)


@quiet
def response_states(mu, k, rho, y0, z, guard):
    """Response map driven by the float64 line z under the feedback law.

    Step n is y = _response_step(mu, k, gain, y, y - z[n], z[n]), gain
    the _gain of rho and k, computed once; the loop steps it in blocks of
    _response_block.  Returns (ys, diverge_index): ys has one sample more
    than z, and diverge_index is the first index with |y| > guard or y
    NaN (samples past it are left at 0), or -1 if none.

    The loop steps one block at a time.  If y equals z[n] with the same
    sign bit, the error is exactly +0.0, or NaN on an infinite sample,
    where the law times 0.0 is NaN too.  So the block is one vector pass of
    _response_step over the line with error 0.0, cut at the first image
    that differs from the next line sample in value or sign bit.  The pass
    is bit for bit what the loop would compute, except for the sign of a
    NaN when mu, k or rho is not finite: there numpy's vector loop and the
    Python loop may pick different signs, and ScenarioConfig rejects such
    a config.  The pass's width doubles up to _SYNC_PROBE_MAX while the
    blocks stay in sync, so a stretch of exact sync costs O(its length).
    Otherwise the block is one _response_block call of _SYNC_CHECK steps.
    Either block goes into ys, is checked against the guard in one vector
    test and hands y its last state.  A stepwise block's Python floats go
    into numpy through _packed.
    """
    mu = float(mu)
    k = float(k)
    gain = _gain(float(rho), k)
    y = float(y0)
    guard = float(guard)
    n_steps = z.size
    ys = np.zeros(n_steps + 1)
    ys[0] = y
    n = 0
    diverge = -1
    width = _SYNC_CHECK
    while n < n_steps:
        if y == z[n] and math.copysign(1.0, y) == math.copysign(1.0, z[n]):
            end = min(n + width, n_steps)
            d = z[n:end]
            block = _response_step(mu, k, gain, d, 0.0, d)  # d - d's bits, no temporary
            follow = z[n + 1:end + 1]
            head = block[:follow.size]
            cuts = np.flatnonzero((head != follow) | (np.signbit(head) != np.signbit(follow)))
            if cuts.size:
                end = n + 1 + int(cuts[0])
                block = block[:end - n]
            width = min(2 * width, _SYNC_PROBE_MAX)
        else:
            end = min(n + _SYNC_CHECK, n_steps)
            block = _packed(_response_block(mu, k, gain, y, z[n:end].tolist()))
            width = _SYNC_CHECK
        ys[n + 1:end + 1] = block
        y = float(block[-1])
        held = np.abs(block) <= guard  # False for NaN
        if not held.all():
            diverge = n + 1 + int(np.flatnonzero(~held)[0])
            ys[diverge + 1:end + 1] = 0.0
            break
        n = end
    return ys, diverge


# A run's failure kinds, 0 for none, ordered as a step meets them: an
# escape comes before a divergence at the same step.
ESCAPED = 1  # the drive left the basin,
DIVERGED = 2  # the response passed the guard,
IDLE_CAPPED = 3  # or a hop run's idle phase outlasted its cap


@_inlined
def hop_run(mu, k, rho, x, y, scale, offset, pick, width, window, tol, guard, counted):
    """A hop run from drive x and response y, as a generator of row chunks.

    Each session is an idle phase then width active steps; pick holds
    width entries per session.  Every step advances the drive as
    logistic_orbit does, takes its line sample d, the drive x on an idle
    step and on an active one x or _line(x, scale, offset), the line
    level of a 0 or 1 source bit as pick says, and steps the response
    with _response_step on the error e = y - d.  The trigger's run counts
    the trailing steps with |e| < tol: every idle step adds to it, an
    active one only if counted.  An idle phase ends on the step that
    brings the run to window; the row after it is a hop row.

    Yields (xs, ys, hops, fail): the drive and response rows as read-only
    float64 arrays, each packed from its Python floats by _packed, and
    the hop rows among them as a list; the session's control column is
    control_column of the rows' responses and line samples.  A chunk is
    yielded at the end of an active phase once _HOP_CHUNK rows have
    gathered, so it holds at most _HOP_CHUNK rows plus one session.  The
    run stops at the first step whose new drive sample lies outside
    (0, k) (fail ESCAPED), else whose response passes the guard or is NaN
    (DIVERGED), else that ends idle step MAX_IDLE_STEPS + 1 of a phase
    without a trigger (IDLE_CAPPED), else (fail 0) after the last active
    phase.  The last chunk ends with the state the run stopped at, the
    one row if no session.

    A session is two loops, so no row tests the phase: the idle loop steps
    with d = x until the trigger or the idle cap, the active loop steps
    over the session's width entries of pick.  pick is made a list, the
    gain is computed, and guard and tol are negated, once before the
    loops, so no row converts, multiplies or negates them.
    """
    mu = float(mu)
    k = float(k)
    gain = _gain(float(rho), k)
    x = float(x)
    y = float(y)
    scale = float(scale)
    offset = float(offset)
    tol = float(tol)
    guard = float(guard)
    neg_guard = -guard
    neg_tol = -tol
    pick = pick.tolist()
    sessions = len(pick) // width
    xs, ys, hops = [], [], []
    run = yielded = fail = 0
    for session in range(sessions):
        for _ in range(MAX_IDLE_STEPS + 1):  # the idle phase: the line sample is the drive
            xs.append(x)
            ys.append(y)
            e = y - x
            y = _response_step(mu, k, gain, y, e, x)
            x = _map_step(mu, k, x)
            # a step that does not continue ends the run
            if not 0.0 < x < k:
                fail = ESCAPED
                break
            if not neg_guard <= y <= guard:
                fail = DIVERGED
                break
            run = run + 1 if neg_tol < e < tol else 0
            if run >= window:
                break
        else:
            fail = IDLE_CAPPED
        if fail:
            break
        hops.append(yielded + len(xs))
        for bit in pick[session * width:(session + 1) * width]:  # the active phase
            xs.append(x)
            ys.append(y)
            d = _line(x, scale, offset) if bit else x
            e = y - d
            y = _response_step(mu, k, gain, y, e, d)
            x = _map_step(mu, k, x)
            if not 0.0 < x < k:
                fail = ESCAPED
                break
            if not neg_guard <= y <= guard:
                fail = DIVERGED
                break
            if counted:
                run = run + 1 if neg_tol < e < tol else 0
        if fail:
            break
        if len(xs) >= _HOP_CHUNK and session + 1 < sessions:
            yield _packed(xs), _packed(ys), hops, 0
            yielded += len(xs)
            xs, ys, hops = [], [], []
    xs.append(x)
    ys.append(y)
    yield _packed(xs), _packed(ys), hops, fail


@_inlined
def fx_sync_run(mu_q, rho_q, frac, k, x0, y0, n_steps):
    """Quantized drive/response pair with quantized control.

    The response update is _fx_response_step, its gain computed once
    before the loop: it keeps the map's numerator mu_q*y*(k-y) and the
    law's numerator in one wide integer and applies the floor division by
    denom = frac * k once, so the float-domain cancellation survives
    quantization; _saturated then clamps it to 16 bits, once.  The drive
    update is _fx_map_step, clamped the same way.  Once x == y the error
    is 0 and both sides apply the same update, so equality holds.

    From that step on only the drive is stepped, and each state's first
    index goes into a visited table of size k: the drive is a map on the
    states (0, k), so within k steps a state comes round again and the
    run has found its cycle.  The rest of the drive is that cycle copied
    forward with doubling slice copies, its response saturations are the
    per-pass count times the full passes plus the partial pass, and the
    response is the drive.  A run of any length costs O(sync + k) steps.

    Returns (x, y, first_equal, escape_index, saturations, transient,
    period): first_equal is the first index with x == y (or -1);
    escape_index is the first index with the drive outside the open basin
    (0, k), or -1 if none, and samples past it are left at 0, as in
    logistic_orbit; saturations counts clipped response states; transient
    is the first index from which the drive repeats with period `period`,
    both -1 unless the synchronized drive revisits a state within n_steps.
    The arguments are plain ints, which keeps the arithmetic fast; x0 must
    lie in (0, k), which fixedpoint.fx_run_sync checks before the call.
    """
    xs = np.zeros(n_steps + 1, dtype=np.int64)
    ys = np.zeros(n_steps + 1, dtype=np.int64)
    xs[0] = x0
    ys[0] = y0
    first = 0 if x0 == y0 else -1
    saturations = 0
    x = x0
    y = y0
    denom = frac * k
    gain = _gain(rho_q, k)
    n = 0
    while first < 0 and n < n_steps:
        e = y - x
        wide = _fx_response_step(mu_q, k, gain, y, e, x, denom)
        y = _saturated(wide)
        if y != wide:
            saturations += 1
        x = _fx_map_step(mu_q, k, x, denom)
        x = _saturated(x)
        n += 1
        xs[n] = x
        ys[n] = y
        if x == y:
            first = n
        if not (0 < x < k):
            return xs, ys, first, n, saturations, -1, -1
    if first < 0:
        return xs, ys, first, -1, saturations, -1, -1

    # Synchronized: the response update is the drive's, and a clipped
    # drive image is a saturated response state.
    seen = np.full(k, -1, dtype=np.int64)  # first index of each drive state
    clips = np.zeros(k, dtype=np.int64)  # saturations up to that index
    seen[x] = n
    clips[x] = saturations
    escape = transient = period = -1
    while n < n_steps:
        wide = _fx_map_step(mu_q, k, x, denom)
        x = _saturated(wide)
        if x != wide:
            saturations += 1
        n += 1
        xs[n] = x
        if not (0 < x < k):
            escape = n
            break
        start = seen[x]
        if start >= 0:
            period = n - start
            # The n_steps - n transitions left are whole passes round the
            # cycle plus a partial one that ends at xs[start + rest].
            passes, rest = divmod(n_steps - n, period)
            saturations += (passes * (saturations - clips[x])
                            + clips[xs[start + rest]] - clips[x])
            filled = n + 1
            while filled <= n_steps:
                count = min(filled - start - 1, n_steps + 1 - filled)
                xs[filled:filled + count] = xs[start + 1:start + 1 + count]
                filled += count
            # The drive may have entered its cycle before the pair met.
            transient = start
            while transient > 0 and xs[transient - 1] == xs[transient - 1 + period]:
                transient -= 1
            break
        seen[x] = n
        clips[x] = saturations
    ys[first:] = xs[first:]
    return xs, ys, first, escape, saturations, transient, period

