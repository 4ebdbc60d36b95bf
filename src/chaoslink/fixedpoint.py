"""16-bit fixed-point twin of the synchronized map.

States are signed 16-bit integers with the scale factor k = 2**10
standing for the canonical 1.0; the coefficients mu and rho are Q4.12.
Intermediates are kept in wide (>= 48 bit) integers, shifts truncate
toward negative infinity, and 16-bit overflow saturates instead of
wrapping.
"""

from dataclasses import dataclass

import numpy as np

from . import _accel
from ._accel import I16_MAX, I16_MIN
from .core import BasinEscapeError

DEFAULT_FRAC_BITS = 12
DEFAULT_K = 1024
MAX_K = 1 << 15


def _check_frac_bits(frac_bits: int) -> None:
    # These bounds keep every wide product of fx_sync_run below 2**62, so a
    # signed 64-bit intermediate holds it.
    if not 1 <= frac_bits <= 15:
        raise ValueError(f"frac_bits must lie in [1, 15], got {frac_bits}")


@dataclass(frozen=True)
class FixedParams:
    """Quantized map parameter, feedback gain, and scale factor."""

    mu_q: int
    rho_q: int
    k: int = DEFAULT_K
    frac_bits: int = DEFAULT_FRAC_BITS

    def __post_init__(self):
        _check_frac_bits(self.frac_bits)
        frac = 1 << self.frac_bits
        if not 0 < self.mu_q / frac <= 4.0:
            raise ValueError(f"mu_q/{frac} must lie in (0, 4], got {self.mu_q}")
        if not -8 * frac <= self.rho_q < 8 * frac:
            raise ValueError(f"rho_q/{frac} must lie in [-8, 8), got {self.rho_q}")
        if not (isinstance(self.k, int) and 0 < self.k <= MAX_K):
            raise ValueError(f"k must be an integer in (0, {MAX_K}], got {self.k!r}")

    @classmethod
    def from_real(cls, mu: float, rho: float, k: int = DEFAULT_K,
                  frac_bits: int = DEFAULT_FRAC_BITS) -> "FixedParams":
        _check_frac_bits(frac_bits)
        frac = 1 << frac_bits
        return cls(mu_q=round(mu * frac), rho_q=round(rho * frac),
                   k=k, frac_bits=frac_bits)

    @property
    def frac(self) -> int:
        return 1 << self.frac_bits


@dataclass(frozen=True)
class FixedSyncRun:
    """Trace and summary of a quantized drive/response run.

    transient and period describe the carrier's cycle: from index
    transient on, x repeats with period period.  Both are None when the
    pair does not synchronize, or its drive revisits no state, within
    the run.
    """

    x: np.ndarray
    y: np.ndarray
    first_equal: int | None
    saturations: int
    transient: int | None
    period: int | None


def fx_run_sync(params: FixedParams, x0: int, y0: int, steps: int) -> FixedSyncRun:
    """Step both quantized units with quantized control.

    The response numerator mu_q*y*(k-y) + u_num is kept in one wide
    integer and shifted/divided once, so the error contraction survives
    truncation; saturation applies to the final 16-bit state only.
    Response saturation events are recorded, not fatal; a drive that
    leaves (0, k) raises BasinEscapeError.
    """
    if not 0 < x0 < params.k:
        raise ValueError(f"drive initial state must lie in (0, {params.k})")
    if not I16_MIN <= y0 <= I16_MAX:
        raise ValueError(f"response initial state {y0} outside 16-bit range")
    xs, ys, first, escape, sats, transient, period = _accel.fx_sync_run(
        params.mu_q, params.rho_q, params.frac, params.k, x0, y0, steps
    )
    if escape >= 0:
        raise BasinEscapeError(escape, int(xs[escape]))
    return FixedSyncRun(
        x=xs,
        y=ys,
        first_equal=None if first < 0 else int(first),
        saturations=int(sats),
        transient=None if transient < 0 else int(transient),
        period=None if period < 0 else int(period),
    )
