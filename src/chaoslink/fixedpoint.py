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

I16_MIN = -32768
I16_MAX = 32767

DEFAULT_FRAC_BITS = 12
DEFAULT_K = 1024


@dataclass(frozen=True)
class QFormat:
    """Bit widths: 16-bit states, Q4.12 coefficients by default."""

    total_bits: int = 16
    frac_bits: int = DEFAULT_FRAC_BITS

    def __post_init__(self):
        if not 0 < self.frac_bits < self.total_bits:
            raise ValueError("need 0 < frac_bits < total_bits")


@dataclass(frozen=True)
class FixedParams:
    """Quantized map parameter, feedback gain, and scale factor."""

    mu_q: int
    rho_q: int
    k: int = DEFAULT_K
    frac_bits: int = DEFAULT_FRAC_BITS

    def __post_init__(self):
        frac = 1 << self.frac_bits
        if not 0 < self.mu_q / frac <= 4.0:
            raise ValueError(f"mu_q/{frac} must lie in (0, 4], got {self.mu_q}")

    @classmethod
    def from_real(cls, mu: float, rho: float, k: int = DEFAULT_K,
                  frac_bits: int = DEFAULT_FRAC_BITS) -> "FixedParams":
        frac = 1 << frac_bits
        return cls(mu_q=round(mu * frac), rho_q=round(rho * frac),
                   k=k, frac_bits=frac_bits)

    @property
    def frac(self) -> int:
        return 1 << self.frac_bits


@dataclass(frozen=True)
class FixedState:
    """Signed 16-bit state; saturated marks a clipped conversion."""

    value: int
    saturated: bool = False

    def __post_init__(self):
        if not I16_MIN <= self.value <= I16_MAX:
            raise ValueError(f"state {self.value} outside 16-bit range")


@dataclass(frozen=True)
class FixedSyncRun:
    """Trace and summary of a quantized drive/response run."""

    x: np.ndarray
    y: np.ndarray
    first_equal: int | None
    held: bool
    saturations: int


def saturate16(v: int) -> tuple[int, bool]:
    """Clip to the signed 16-bit range; second element flags clipping."""
    if v > I16_MAX:
        return I16_MAX, True
    if v < I16_MIN:
        return I16_MIN, True
    return v, False


def fx_from_real(x: float, k: float = 1.0) -> FixedState:
    """Quantize a real state to 16 bits; k maps to 1024 counts.

    Round-to-nearest, ties away from zero; saturating.
    """
    scaled = x * (DEFAULT_K / k)
    q = int(np.floor(abs(scaled) + 0.5))
    if scaled < 0:
        q = -q
    value, sat = saturate16(q)
    return FixedState(value=value, saturated=sat)


def fx_to_real(value: int, k: float = 1.0) -> float:
    """Inverse scaling of fx_from_real (without the rounding)."""
    return value * (k / DEFAULT_K)


def fx_step(params: FixedParams, x: int) -> int:
    """Quantized map step: mu_q*x*(k-x) >> frac_bits, / k, saturated.

    Truncation is toward negative infinity (floor division).
    """
    value, _ = saturate16((params.mu_q * x * (params.k - x)) // params.frac // params.k)
    return value


def fx_control(params: FixedParams, e: int, d: int) -> int:
    """Quantized control effort as a wide signed integer.

    [mu_q*(e + 2d - k) + rho_q*k] * e / (k * 2**frac_bits), truncated
    toward negative infinity.  Not saturated: the caller clips the
    resulting 16-bit state, not the intermediate effort.
    """
    k = params.k
    num = (params.mu_q * (e + 2 * d - k) + params.rho_q * k) * e
    return num // params.frac // k


def fx_run_sync(params: FixedParams, x0: int, y0: int, steps: int) -> FixedSyncRun:
    """Step both quantized units with quantized control.

    The response numerator mu_q*y*(k-y) + u_num is kept in one wide
    integer and shifted/divided once, so the error contraction survives
    truncation; saturation applies to the final 16-bit state only.
    Response saturation events are recorded, not fatal.
    """
    if not 0 < x0 < params.k:
        raise ValueError(f"drive initial state must lie in (0, {params.k})")
    xs, ys, first, held, sats = _accel.fx_sync_run(
        params.mu_q, params.rho_q, params.frac, params.k, x0, y0, steps
    )
    return FixedSyncRun(
        x=np.asarray(xs),
        y=np.asarray(ys),
        first_equal=None if first < 0 else int(first),
        held=bool(held),
        saturations=int(sats),
    )


def fx_drive_orbit(params: FixedParams, x0: int, steps: int) -> np.ndarray:
    """Quantized drive-only orbit; raises if the state leaves (0, k)."""
    out, escape = _accel.fx_drive_orbit(params.mu_q, params.frac, params.k, x0, steps)
    if escape >= 0:
        raise ValueError(
            f"quantized drive left (0, {params.k}) at step {escape}: {out[escape]}"
        )
    return np.asarray(out)


def to_bin16(value: int) -> str:
    """16-character two's-complement binary string (logic-analyzer style)."""
    return format(value & 0xFFFF, "016b")


def export_logic_trace(run: FixedSyncRun, path) -> None:
    """Logic-analyzer style CSV: step, binary and decimal states, equal flag."""
    with open(path, "w", newline="") as fh:
        fh.write("step,x_bin,x_dec,y_bin,y_dec,equal\n")
        for n, (x, y) in enumerate(zip(run.x, run.y)):
            fh.write(
                f"{n},{to_bin16(int(x))},{int(x)},{to_bin16(int(y))},{int(y)},"
                f"{1 if x == y else 0}\n"
            )
