"""Hot inner loops, JIT-compiled with numba when available.

Setting the environment variable ``CHAOSLINK_NO_NUMBA=1`` (before first
import) selects the pure-Python/numpy fallback path.  Both paths execute
the same source and produce identical results; the fallback is simply
slower on the million-step runs.
"""

import os

import numpy as np

_disable = os.environ.get("CHAOSLINK_NO_NUMBA", "").strip().lower() in (
    "1", "true", "yes", "on",
)

if not _disable:
    try:
        from numba import njit

        USING_NUMBA = True
    except ImportError:  # pragma: no cover - numba is a hard dependency
        USING_NUMBA = False
else:
    USING_NUMBA = False

if not USING_NUMBA:

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def decorate(func):
            return func

        return decorate


_I16_MIN = -32768
_I16_MAX = 32767


@njit(cache=True)
def logistic_orbit(mu, k, x0, n_steps):
    """Iterate the map, recording n_steps+1 samples.

    Returns (orbit, escape_index); escape_index is the index of the first
    sample outside the open basin (0, k), or -1 if none.  Samples past an
    escape are left at 0.
    """
    out = np.zeros(n_steps + 1)
    out[0] = x0
    if not (0.0 < x0 < k):
        return out, 0
    x = x0
    for i in range(n_steps):
        x = mu * x * (1.0 - x / k)
        out[i + 1] = x
        if not (0.0 < x < k):
            return out, i + 1
    return out, -1


@njit(cache=True)
def lyapunov_sum(mu, k, x0, n_steps, burn_in):
    """Accumulate ln|mu(1 - 2x/k)| along the orbit after burn_in.

    Returns (log_sum, term_count, skipped, escape_index).  Terms with a
    vanishing derivative (orbit exactly at k/2) are skipped and counted.
    """
    x = x0
    for _ in range(burn_in):
        x = mu * x * (1.0 - x / k)
        if not (0.0 < x < k):
            return 0.0, 0, 0, 1
    total = 0.0
    count = 0
    skipped = 0
    for _ in range(n_steps):
        deriv = abs(mu * (1.0 - 2.0 * x / k))
        if deriv > 0.0:
            total += np.log(deriv)
            count += 1
        else:
            skipped += 1
        x = mu * x * (1.0 - x / k)
        if not (0.0 < x < k):
            return total, count, skipped, 1
    return total, count, skipped, -1


@njit(cache=True)
def bifurcation_samples(mus, settle, keep, x0, k):
    """Per mu: settle iterations, then keep recorded samples.

    Returns (samples[len(mus), keep], escaped flags).
    """
    out = np.zeros((mus.size, keep))
    escaped = np.zeros(mus.size, dtype=np.int64)
    for j in range(mus.size):
        mu = mus[j]
        x = x0
        ok = True
        for _ in range(settle):
            x = mu * x * (1.0 - x / k)
            if not (0.0 < x < k):
                ok = False
                break
        if not ok:
            escaped[j] = 1
            continue
        for i in range(keep):
            out[j, i] = x
            x = mu * x * (1.0 - x / k)
            if not (0.0 < x < k):
                escaped[j] = 1
                break
    return out, escaped


@njit(cache=True)
def control_effort(mu, k, rho, e, d):
    """The feedback law u = [mu(e + 2d - k) + rho*k] * e / k for error e
    against the drive-side sample d; see chaoslink.control."""
    return (mu * (e + 2.0 * d - k) + rho * k) * e / k


@njit(cache=True)
def response_track(mu, k, rho, y0, z, guard):
    """Response map driven by the line samples z under the feedback law.

    Step n applies control_effort(y - z[n], z[n]).  Returns (ys, us,
    diverge_index): ys has one sample more than z, us[n] is the control
    on the n -> n+1 transition, and diverge_index is the first index with
    |y| > guard (samples past it are left at 0), or -1 if none.
    """
    n_steps = z.size
    ys = np.zeros(n_steps + 1)
    us = np.zeros(n_steps)
    ys[0] = y0
    y = y0
    for n in range(n_steps):
        d = float(z[n])  # a Python float keeps the fallback's arithmetic fast
        u = control_effort(mu, k, rho, y - d, d)
        us[n] = u
        y = mu * y * (1.0 - y / k) + u
        ys[n + 1] = y
        if abs(y) > guard:
            return ys, us, n + 1
    return ys, us, -1


@njit(cache=True)
def fx_sync_run(mu_q, rho_q, frac, k, x0, y0, n_steps):
    """Quantized drive/response pair with quantized control.

    The response update keeps mu_q*y*(k-y) + u's numerator in one wide
    integer and applies the shift/divide and 16-bit saturation once, so
    the float-domain cancellation survives quantization.  Once x == y the
    error is 0 and both sides apply the same update, so equality holds.

    Returns (x, y, first_equal, escape_index, saturations): first_equal is
    the first index with x == y (or -1); escape_index is the first index
    with the drive outside the open basin (0, k), or -1 if none, and
    samples past it are left at 0, as in logistic_orbit; saturations counts
    clipped response states.  The arguments are plain ints, which keeps the
    fallback's arithmetic fast.
    """
    xs = np.zeros(n_steps + 1, dtype=np.int64)
    ys = np.zeros(n_steps + 1, dtype=np.int64)
    xs[0] = x0
    ys[0] = y0
    first = 0 if x0 == y0 else -1
    saturations = 0
    if not (0 < x0 < k):
        return xs, ys, first, 0, saturations
    x = x0
    y = y0
    denom = frac * k
    for n in range(n_steps):
        e = y - x
        y = (mu_q * y * (k - y) + (mu_q * (e + 2 * x - k) + rho_q * k) * e) // denom
        if y > _I16_MAX:
            y = _I16_MAX
            saturations += 1
        elif y < _I16_MIN:
            y = _I16_MIN
            saturations += 1
        x = (mu_q * x * (k - x)) // denom
        if x > _I16_MAX:  # x lies in (0, k), so its image is never negative
            x = _I16_MAX
        xs[n + 1] = x
        ys[n + 1] = y
        if first < 0 and x == y:
            first = n + 1
        if not (0 < x < k):
            return xs, ys, first, n + 1, saturations
    return xs, ys, first, -1, saturations
