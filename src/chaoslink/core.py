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


@dataclass(frozen=True)
class Orbit:
    """A finite orbit of the map; every sample lies in (0, k)."""

    samples: np.ndarray
    params: LogisticParams


@dataclass(frozen=True)
class SpectrumReport:
    """Amplitude spectrum plus spectral flatness of a sequence."""

    magnitudes: np.ndarray
    flatness: float


def step(params: LogisticParams, x: float) -> float:
    """One application of the map.  Pure; x may be any real."""
    return params.mu * x * (1.0 - x / params.k)


def iterate(params: LogisticParams, x0: float, n_steps: int) -> Orbit:
    """Orbit of length n_steps+1 starting at x0; raises on basin escape."""
    samples, escape = _accel.logistic_orbit(params.mu, params.k, x0, n_steps)
    if escape >= 0:
        raise BasinEscapeError(escape, samples[escape])
    return Orbit(samples=samples, params=params)


def lyapunov_exponent(
    params: LogisticParams,
    x0: float,
    n_steps: int,
    burn_in: int = DEFAULT_BURN_IN,
    return_skipped: bool = False,
):
    """Finite-time Lyapunov exponent estimate.

    Time average of ln|mu(1 - 2x/k)| along the orbit after burn_in.
    Positive values classify chaos, negative values periodicity.  Terms
    where the orbit hits k/2 exactly (log singularity) are skipped; pass
    return_skipped=True to also get their count.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    total, count, skipped, escape = _accel.lyapunov_sum(
        params.mu, params.k, x0, n_steps, burn_in
    )
    if escape >= 0:
        raise BasinEscapeError(escape, float("nan"))
    value = total / count if count else 0.0
    if return_skipped:
        return value, skipped
    return value


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
    plotting.  Raises on basin escape (mu outside (0, 4]).
    """
    if not (0.0 < mu_min <= mu_max <= 4.0):
        raise ValueError("mu range must satisfy 0 < mu_min <= mu_max <= 4")
    if settle < 100:
        raise ValueError("settle must be >= 100")
    mus = np.linspace(mu_min, mu_max, mu_steps)
    samples, escaped = _accel.bifurcation_samples(mus, settle, keep, x0, k)
    if escaped.any():
        j = int(np.argmax(escaped))
        raise BasinEscapeError(0, mus[j])
    return [(float(mus[j]), samples[j]) for j in range(mus.size)]


def count_attractor_values(samples: np.ndarray, tol: float = 1e-6) -> int:
    """Distinct attractor values up to a clustering tolerance."""
    ordered = np.sort(np.asarray(samples, dtype=float))
    if ordered.size == 0:
        return 0
    return 1 + int(np.count_nonzero(np.diff(ordered) > tol))


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
