"""Hot inner loops, as pure Python/numpy.

Five kernels: logistic_orbit iterates the float map, control_effort is
the feedback law, response_track runs the controlled response on line
samples, hop_run steps hop sessions, drive included, and fx_sync_run is
the 16-bit quantized drive/response pair; control_column is the law over
a whole session's rows.  Sessions and chaos diagnostics alike are built on
these; no session steps a sample in Python outside them.

hop_run steps the drive and the response of idle and active phases in
one loop: each step advances the drive with logistic_orbit's expression,
takes its line sample (the drive when idle, the drive or its masked 1-bit
level, chosen by the source bit, when active), applies control_effort,
counts the trigger's run and checks the drive's escape and the guard.
It is a generator that keeps the whole loop state in its own frame and
yields the rows a fixed number at a time, so a run of any length holds
one chunk of Python floats.

response_track steps the response in blocks of _SYNC_CHECK steps and,
between blocks, checks for exact sync: y == z[n], sign bit included.
From there the error y - z[n] is exactly +0.0, the control is the law at
e = +0.0 and the update is the line's own map, so as long as each image
equals the next line sample the loop's results are those of one vector
pass over the line, written straight into the float64 output.  That pass
runs in doubling windows, so a stretch of exact sync costs O(its length)
and the loop resumes where the line leaves it.

fx_sync_run steps the pair only until it synchronizes.  From then on the
response is the drive, and the drive is a map on at most k states, so a
visited table of size k finds its cycle within k steps; the rest of the
run is that cycle tiled by slice copies, with the saturation count tiled
alongside.  A run of any length therefore costs O(sync + k) steps.

The float kernels keep only the state on each step.  logistic_orbit and
response_track step each block in one list comprehension whose assignment
expression carries the state, written straight into the preallocated
float64 output, and test the block once in numpy: the orbit must lie in
(0, k), the response within the guard, which a NaN fails.  On a failure
the first bad index is the kernel's result and the samples after it are
zeroed, so a failing run does at most one block of work past the failure;
Python floats overflow to inf and NaN without a warning, so that work is
quiet.  hop_run, which branches on the phase at every step, appends each
row to lists that become float64 arrays as each chunk is yielded.
A control column is not stored per step: control_column rebuilds it from
the stepped states in one vector call of control_effort, the same float64
operations in the same order as the loop's scalar call, so bit for bit
the loop's control.
"""

import math

import numpy as np


I16_MIN = -32768
I16_MAX = 32767
_SYNC_CHECK = 1024  # steps per block; the response checks exact sync between blocks
_SYNC_PROBE_MAX = 1 << 16  # largest window of one exact-sync vector pass

# An exact-sync window may run past the sync into huge or infinite line
# samples, and a control column may hold huge or infinite states: numpy
# warns on their overflow and inf - inf, the loops' Python floats do not.
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
        block = orbit[n:end]
        block[:] = [x := mu * x * (1.0 - x / k) for _ in range(end - n)]
        inside = (block > 0.0) & (block < k)
        if not inside.all():
            escape = n + int(np.flatnonzero(~inside)[0])
            orbit[escape + 1:end] = 0.0
            return orbit, escape
        n = end
    return orbit, -1


def control_effort(mu, k, rho, e, d):
    """The feedback law u = [mu(e + 2d - k) + rho*k] * e / k for error e
    against the drive-side sample d; see chaoslink.control."""
    return (mu * (e + 2.0 * d - k) + rho * k) * e / k


@quiet
def control_column(mu, k, rho, y, z, rows):
    """The control a loop applied on its first `rows` transitions, response
    samples y against line samples z, as one vector call of control_effort;
    the rest of the column is left at 0."""
    u = np.zeros(z.size)
    d = z[:rows]
    u[:rows] = control_effort(float(mu), float(k), float(rho), y[:rows] - d, d)
    return u


@quiet
def _follow_line(mu, k, rho, z, n, guard, ys):
    """Fill ys from step n on, given that the response state equals z[n]
    with the same sign bit.

    While y == z[m] the loop's error y - z[m] is z[m] - z[m] (+0.0, never
    -0.0) and its update is the map on z[m] plus that control, so each
    step is a vector operation on the line; the run ends at the first
    image that differs from the next line sample in value or sign bit.
    Windows double up to _SYNC_PROBE_MAX, so the pass reads O(run length)
    samples.  Returns (n, diverge_index): n is the step at which the loop
    resumes from ys[n] (z.size if the line ends in sync), diverge_index
    as in response_track, -1 if no image crossed the guard.
    """
    n_steps = z.size
    width = _SYNC_CHECK
    while n < n_steps:
        hi = min(n + width, n_steps)
        d = z[n:hi]
        nxt = mu * d * (1.0 - d / k) + control_effort(mu, k, rho, d - d, d)
        stops = ~(np.abs(nxt) <= guard)
        follow = z[n + 1:hi + 1]
        m = follow.size
        stops[:m] |= (nxt[:m] != follow) | (np.signbit(nxt[:m]) != np.signbit(follow))
        hits = np.flatnonzero(stops)
        last = int(hits[0]) if hits.size else hi - n - 1
        ys[n + 1:n + last + 2] = nxt[:last + 1]
        if not abs(nxt[last]) <= guard:
            return n + last + 1, n + last + 1
        if hits.size:
            return n + last + 1, -1
        n = hi
        width = min(2 * width, _SYNC_PROBE_MAX)
    return n, -1


def response_track(mu, k, rho, y0, z, guard):
    """Response map driven by the float64 line z under the feedback law.

    Step n applies control_effort(y - z[n], z[n]).  Returns (ys, us,
    diverge_index): ys has one sample more than z, us[n] is the control
    on the n -> n+1 transition, and diverge_index is the first index with
    |y| > guard or y NaN (samples past it are left at 0), or -1 if none.

    Each block of _SYNC_CHECK steps is one comprehension written into ys
    and checked against the guard in one vector test; us is control_column
    over the stepped rows once the loop is done.  Before each whole block
    the loop checks whether y equals z[n] with the same sign bit.
    Once it does, the error is exactly +0.0 and the update is the line's
    own map, so _follow_line writes the line's controlled continuation
    into ys in vector form, bit for bit what the loop would compute, and
    the loop resumes where the line stops following its own map.
    """
    mu = float(mu)
    k = float(k)
    rho = float(rho)
    y = float(y0)
    guard = float(guard)
    n_steps = z.size
    ys = np.zeros(n_steps + 1)
    ys[0] = y
    n = 0
    diverge = -1
    while n < n_steps and diverge < 0:
        end = n + _SYNC_CHECK
        if end > n_steps:  # a vector pass is not worth a partial block
            end = n_steps
        elif y == z[n] and math.copysign(1.0, y) == math.copysign(1.0, z[n]):
            n, diverge = _follow_line(mu, k, rho, z, n, guard, ys)
            y = float(ys[n])
            continue
        block = ys[n + 1:end + 1]
        block[:] = [y := mu * y * (1.0 - y / k) + control_effort(mu, k, rho, y - d, d)
                    for d in z[n:end].tolist()]
        held = np.abs(block) <= guard  # False for NaN
        if not held.all():
            diverge = n + 1 + int(np.flatnonzero(~held)[0])
            ys[diverge + 1:end + 1] = 0.0
        n = end
    rows = n_steps if diverge < 0 else diverge
    return ys, control_column(mu, k, rho, ys, z, rows), diverge


ESCAPED = 1  # hop_run failures: the drive left the basin,
DIVERGED = 2  # the response passed the guard,
IDLE_CAPPED = 3  # or an idle phase outlasted its cap


def hop_run(mu, k, rho, x, y, sessions, scale, offset, pick, width, window, tol,
            guard, counted, cap, chunk):
    """A hop run from drive x and response y, as a generator of row chunks.

    Each session is an idle phase then width active steps.  Every step
    advances the drive as logistic_orbit does, takes its line sample d,
    the drive x on an idle step and on an active one x or x * scale +
    offset, the line level of a 0 or 1 source bit as pick says (width
    entries per session), and applies control_effort(y - d, d).  The
    trigger's run counts the trailing steps with |y - d| < tol: every idle
    step adds to it, an active one only if counted.  An idle phase ends on
    the step that brings the run to window; the row after it is a hop row.

    Yields (xs, ys, hops, fail) every chunk rows: the drive and response
    rows as float64 arrays and the hop rows among them as a list; the
    controls are control_column over the rows' line samples.  The run stops
    at the first step whose new drive sample lies outside (0, k) (fail
    ESCAPED), else whose response passes the guard or is NaN (DIVERGED),
    else that ends the cap-th idle step of a phase without a trigger
    (IDLE_CAPPED), else (fail 0) after the last active phase.  The last
    chunk ends with the state the run stopped at, the one row if no session.
    """
    mu = float(mu)
    k = float(k)
    rho = float(rho)
    x = float(x)
    y = float(y)
    scale = float(scale)
    offset = float(offset)
    tol = float(tol)
    guard = float(guard)
    xs, ys, hops = [], [], []
    run = left = idle = started = first = row = fail = 0
    while sessions:
        picks = pick[first:first + chunk].tolist()  # from the next active step
        j = 0
        for n in range(row, row + chunk):
            xs.append(x)
            ys.append(y)
            d = x
            if left and picks[j]:  # active: the level of this step's 1 bit
                d = x * scale + offset
            e = y - d
            x = mu * x * (1.0 - x / k)
            y = mu * y * (1.0 - y / k) + control_effort(mu, k, rho, e, d)
            # a step that does not continue ends the run
            if not 0.0 < x < k:
                fail = ESCAPED
            elif not -guard <= y <= guard:
                fail = DIVERGED
            elif left:
                if counted:
                    run = run + 1 if -tol < e < tol else 0
                left -= 1
                j += 1
                if left or started < sessions:
                    continue
            else:
                run = run + 1 if -tol < e < tol else 0
                if run >= window:
                    hops.append(n + 1)
                    started += 1
                    left = width
                    idle = 0
                    continue
                idle += 1
                if idle <= cap:
                    continue
                fail = IDLE_CAPPED
            break
        else:  # a whole chunk, and the run goes on
            # every list holds floats; naming the dtype skips type discovery
            yield np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64), hops, 0
            xs, ys, hops = [], [], []
            first += j
            row += chunk
            continue
        break
    xs.append(x)
    ys.append(y)
    yield np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64), hops, fail


def fx_sync_run(mu_q, rho_q, frac, k, x0, y0, n_steps):
    """Quantized drive/response pair with quantized control.

    The response update keeps mu_q*y*(k-y) + u's numerator in one wide
    integer and applies the shift/divide and 16-bit saturation once, so
    the float-domain cancellation survives quantization.  Once x == y the
    error is 0 and both sides apply the same update, so equality holds.

    From that step on only the drive is stepped, and each state's first
    index goes into a visited table of size k: the drive is a map on the
    states (0, k), so within k steps a state comes round again and the
    run has found its cycle.  The rest of the drive is that cycle copied
    forward with doubling slice copies, its response saturations are the
    per-pass count times the full passes plus the partial pass, and the
    response is the drive.

    Returns (x, y, first_equal, escape_index, saturations, transient,
    period): first_equal is the first index with x == y (or -1);
    escape_index is the first index with the drive outside the open basin
    (0, k), or -1 if none, and samples past it are left at 0, as in
    logistic_orbit; saturations counts clipped response states; transient
    is the first index from which the drive repeats with period `period`,
    both -1 unless the synchronized drive revisits a state within n_steps.
    The arguments are plain ints, which keeps the arithmetic fast.
    """
    xs = np.zeros(n_steps + 1, dtype=np.int64)
    ys = np.zeros(n_steps + 1, dtype=np.int64)
    xs[0] = x0
    ys[0] = y0
    first = 0 if x0 == y0 else -1
    saturations = 0
    if not (0 < x0 < k):
        return xs, ys, first, 0, saturations, -1, -1
    x = x0
    y = y0
    denom = frac * k
    n = 0
    while first < 0 and n < n_steps:
        e = y - x
        y = (mu_q * y * (k - y) + (mu_q * (e + 2 * x - k) + rho_q * k) * e) // denom
        if y > I16_MAX:
            y = I16_MAX
            saturations += 1
        elif y < I16_MIN:
            y = I16_MIN
            saturations += 1
        x = (mu_q * x * (k - x)) // denom
        if x > I16_MAX:  # x lies in (0, k), so its image is never negative
            x = I16_MAX
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
        x = (mu_q * x * (k - x)) // denom
        if x > I16_MAX:
            x = I16_MAX
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
