"""Scalar Python-int references for the 16-bit fixed-point kernel.

The package runs the quantized pair only through _accel.fx_sync_run; these
one-step functions and the stepwise pair loop are what the tests compare
it against.
"""

from typing import NamedTuple

from chaoslink.fixedpoint import I16_MAX, I16_MIN


def saturate16(v: int) -> tuple[int, bool]:
    """Clip to the signed 16-bit range; second element flags clipping."""
    if v > I16_MAX:
        return I16_MAX, True
    if v < I16_MIN:
        return I16_MIN, True
    return v, False


def fx_step(params, x: int) -> int:
    """Quantized map step: mu_q*x*(k-x) >> frac_bits, / k, saturated.

    Truncation is toward negative infinity (floor division).
    """
    value, _ = saturate16((params.mu_q * x * (params.k - x)) // params.frac // params.k)
    return value


def fx_control(params, e: int, d: int) -> int:
    """Quantized control effort as a wide signed integer.

    [mu_q*(e + 2d - k) + rho_q*k] * e / (k * 2**frac_bits), truncated
    toward negative infinity.  Not saturated: the caller clips the
    resulting 16-bit state, not the intermediate effort.
    """
    k = params.k
    num = (params.mu_q * (e + 2 * d - k) + params.rho_q * k) * e
    return num // params.frac // k


class PairRun(NamedTuple):
    """fx_sync_run's result, with the traces as lists."""

    x: list
    y: list
    first_equal: int
    escape: int
    saturations: int
    transient: int
    period: int


def fx_sync_oracle(params, x0: int, y0: int, steps: int) -> PairRun:
    """Step the pair one step at a time for the whole run, then read the
    drive's cycle off the trace: the first repeat of a state seen since the
    pair met gives the period, and the first index whose sample comes back
    one period later is the transient."""
    k, frac = params.k, params.frac
    xs, ys, saturations, escape = [x0], [y0], 0, -1
    for n in range(steps):
        x, y = xs[-1], ys[-1]
        e = y - x
        wide = params.mu_q * y * (k - y) + (params.mu_q * (e + 2 * x - k) + params.rho_q * k) * e
        y, clipped = saturate16(wide // (frac * k))
        saturations += clipped
        xs.append(fx_step(params, x))
        ys.append(y)
        if not 0 < xs[-1] < k:
            escape = n + 1
            break
    equal = [n for n, (x, y) in enumerate(zip(xs, ys)) if x == y]
    first = equal[0] if equal else -1
    transient = period = -1
    if first >= 0 and escape < 0:
        seen = {}
        for n in range(first, len(xs)):
            if xs[n] in seen:
                period = n - seen[xs[n]]
                transient = next(t for t in range(n) if xs[t] == xs[t + period])
                break
            seen[xs[n]] = n
    tail = [0] * (steps + 1 - len(xs))
    return PairRun(xs + tail, ys + tail, first, escape, saturations, transient, period)
