"""Logistic map dynamics and chaos diagnostics.

The map is x' = mu * x * (1 - x/k).  Drive orbits live in the open
basin (0, k); leaving it is treated as an error (the absorbing zero
fixed point is useless for communication).
"""

from dataclasses import dataclass

import numpy as np

from . import _accel

MIN_SPECTRUM_LENGTH = 64
DEFAULT_BURN_IN = 1000
_ORBIT_BLOCK = 1 << 16  # orbit steps per lyapunov_exponent block


class BasinEscapeError(RuntimeError):
    """An orbit left the open interval (0, k)."""

    def __init__(self, step, value):
        self.step = step
        self.value = value
        super().__init__(f"orbit escaped the basin (0, k) at step {step}: x = {value}")


@dataclass(frozen=True)
class LogisticParams:
    """Map control parameter and scale factor."""

    mu: float
    k: float = 1.0

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError(f"scale factor k must be positive, got {self.k}")
        if not 0.0 < self.mu <= 4.0:
            raise ValueError(f"mu must lie in (0, 4], got {self.mu}")
        if not np.isfinite(float(self.mu) * float(self.k)):
            raise ValueError(f"scale factor k = {self.k} is too large: mu * k overflows")


@dataclass(frozen=True)
class SpectrumReport:
    """Amplitude spectrum plus spectral flatness of a sequence."""

    magnitudes: np.ndarray
    flatness: float


def step(params: LogisticParams, x: float) -> float:
    """One application of the map.  Pure; x may be any real."""
    return params.mu * x * (1.0 - x / params.k)


def _orbit(mu: float, k: float, x0: float, n_steps: int, start: int = 0) -> np.ndarray:
    """The n_steps+1 samples from x0; raises BasinEscapeError on an escape,
    numbering x0's step start."""
    samples, escape = _accel.logistic_orbit(mu, k, x0, n_steps)
    if escape >= 0:
        raise BasinEscapeError(start + escape, samples[escape])
    return samples


def iterate(params: LogisticParams, x0: float, n_steps: int) -> np.ndarray:
    """The n_steps+1 orbit samples from x0, each in (0, k); raises on basin
    escape."""
    return _orbit(params.mu, params.k, x0, n_steps)


def lyapunov_exponent(
    params: LogisticParams,
    x0: float,
    n_steps: int,
    burn_in: int = DEFAULT_BURN_IN,
) -> float:
    """Finite-time Lyapunov exponent estimate.

    Time average of ln|mu(1 - 2x/k)| over the n_steps orbit samples after
    burn_in steps, walked in blocks so memory stays flat.  Positive values
    classify chaos, negative values periodicity.  Samples exactly at k/2
    (log singularity) are left out; 0.0 if all are.  Raises on basin escape.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    total, count, x = 0.0, 0, x0
    for start in range(0, burn_in + n_steps, _ORBIT_BLOCK):
        size = min(_ORBIT_BLOCK, burn_in + n_steps - start)
        samples = _orbit(params.mu, params.k, x, size, start)
        x = float(samples[-1])  # next block's start; a Python float is fast here
        terms = samples[max(burn_in - start, 0):-1]
        deriv = np.abs(params.mu * (1.0 - 2.0 * terms / params.k))
        logs = np.log(deriv[deriv > 0.0])
        # cumsum adds in order, as a scalar loop would; sum() pairs terms up
        total = float(np.cumsum(np.concatenate(([total], logs)))[-1])
        count += logs.size
    return total / count if count else 0.0


def bifurcation_scan(
    mu_min: float,
    mu_max: float,
    mu_steps: int,
    settle: int,
    keep: int,
    x0: float,
    k: float = 1.0,
):
    """Attractor samples on a grid of mu values.

    For each mu the orbit runs settle steps before keep samples are
    recorded.  Returns a list of (mu, samples) pairs, ready for CSV
    plotting.  Raises on basin escape within the settle + keep steps.
    """
    if not (0.0 < mu_min <= mu_max <= 4.0):
        raise ValueError("mu range must satisfy 0 < mu_min <= mu_max <= 4")
    LogisticParams(mu_max, k)
    if settle < 100:
        raise ValueError("settle must be >= 100")
    if keep < 0:
        raise ValueError("keep must be >= 0")
    rows = []
    for mu in np.linspace(mu_min, mu_max, mu_steps).tolist():
        samples = _orbit(mu, k, x0, settle + keep)
        rows.append((mu, samples[settle:settle + keep]))
    return rows


def amplitude_spectrum(samples) -> SpectrumReport:
    """Magnitude spectrum of the mean-removed sequence plus flatness.

    Flatness is the geometric/arithmetic mean ratio of the nonzero-bin
    magnitudes (DC excluded); near 1 for a noise-like flat spectrum.
    No windowing is applied.
    """
    data = np.asarray(samples, dtype=float)
    if data.size < MIN_SPECTRUM_LENGTH:
        raise ValueError(
            f"need at least {MIN_SPECTRUM_LENGTH} samples, got {data.size}"
        )
    magnitudes = np.abs(np.fft.rfft(data - data.mean()))
    bins = magnitudes[1:]
    nonzero = bins[bins > 0.0]
    if nonzero.size == 0:
        flatness = 0.0
    else:
        flatness = float(np.exp(np.mean(np.log(nonzero))) / np.mean(nonzero))
    return SpectrumReport(magnitudes=magnitudes, flatness=flatness)
