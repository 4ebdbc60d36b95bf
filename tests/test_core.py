import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from chaoslink import core
from chaoslink.core import (
    BasinEscapeError,
    LogisticParams,
    amplitude_spectrum,
    bifurcation_scan,
    iterate,
    lyapunov_exponent,
    step,
)


class TestParams:
    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            LogisticParams(mu=3.7, k=0.0)

    @pytest.mark.parametrize("mu", [0.0, -1.0, 4.0001, 5.0])
    def test_rejects_mu_outside_range(self, mu):
        with pytest.raises(ValueError):
            LogisticParams(mu=mu)

    def test_accepts_boundary_mu(self):
        LogisticParams(mu=4.0)

    @pytest.mark.parametrize("mu, k", [(3.7, 1e308), (4.0, 4.5e307), (1.0, float("inf"))])
    def test_rejects_k_whose_mu_multiple_overflows(self, mu, k):
        message = f"scale factor k = {k} is too large: mu * k overflows"
        with pytest.raises(ValueError, match=re.escape(message)):
            LogisticParams(mu=mu, k=k)

    def test_accepts_the_largest_k(self):
        LogisticParams(mu=4.0, k=np.finfo(float).max / 4.0)
        LogisticParams(mu=0.5, k=np.finfo(float).max)


class TestStep:
    def test_hand_value(self):
        assert step(LogisticParams(3.7), 0.1) == pytest.approx(0.333, abs=1e-12)

    def test_fixed_point(self):
        # x* = k(1 - 1/mu)
        assert step(LogisticParams(2.0), 0.5) == pytest.approx(0.5, abs=0)

    def test_boundary_zero(self):
        assert step(LogisticParams(3.7), 1.0) == 0.0

    @given(
        mu=st.floats(0.01, 4.0),
        k=st.floats(0.01, 100.0),
        x=st.floats(0.001, 0.999),
    )
    def test_basin_closure(self, mu, k, x):
        out = step(LogisticParams(mu, k), x * k)
        assert 0.0 <= out <= mu * k / 4.0 + 1e-12 * k
        assert out <= k

    @given(
        mu=st.floats(0.01, 4.0),
        k=st.floats(0.01, 100.0),
        x=st.floats(0.001, 0.999),
    )
    def test_scale_equivariance(self, mu, k, x):
        scaled = step(LogisticParams(mu, k), x * k)
        canonical = k * step(LogisticParams(mu, 1.0), x)
        assert scaled == pytest.approx(canonical, rel=1e-12, abs=1e-12 * k)


class TestIterate:
    def test_two_hand_steps(self):
        orbit = iterate(LogisticParams(3.7), 0.1, 2)
        assert orbit.samples == pytest.approx([0.1, 0.333, 0.8218107], abs=1e-7)

    def test_fixed_point_orbit(self):
        orbit = iterate(LogisticParams(2.0), 0.5, 5)
        assert np.all(orbit.samples == 0.5)

    def test_long_orbit_stays_in_basin(self):
        orbit = iterate(LogisticParams(3.7), 0.1, 10_000)
        assert np.all(orbit.samples > 0.0)
        assert np.all(orbit.samples < 1.0)

    def test_escape_raises(self):
        # mu = 4 maps x = 1/2 to exactly k, which leaves the open basin
        with pytest.raises(BasinEscapeError):
            iterate(LogisticParams(4.0), 0.5, 3)

    def test_out_of_basin_start_raises(self):
        with pytest.raises(BasinEscapeError):
            iterate(LogisticParams(3.7), -0.5, 3)


class TestLyapunov:
    def test_mu4_matches_ln2(self):
        # long-run average oracle vs the closed-form value ln 2 for mu = 4
        value = lyapunov_exponent(LogisticParams(4.0), 0.3, 1_000_000)
        assert value == pytest.approx(math.log(2.0), abs=0.01)

    def test_stable_regime_negative(self):
        assert lyapunov_exponent(LogisticParams(2.5), 0.3, 100_000) < 0.0

    def test_chaotic_regime_positive(self):
        assert lyapunov_exponent(LogisticParams(3.7), 0.1, 1_000_000) > 0.0

    def test_all_terms_skipped_gives_zero(self):
        # mu = 2 fixes x = k/2, where ln|mu(1 - 2x/k)| is singular
        value = lyapunov_exponent(LogisticParams(2.0), 0.5, 1000)
        assert value == 0.0 and type(value) is float

    def test_negative_burn_in_rejected(self):
        with pytest.raises(ValueError, match="burn_in"):
            lyapunov_exponent(LogisticParams(3.7), 0.1, 1000, burn_in=-1)

    def test_memory_does_not_grow_with_steps(self):
        # a walk over the whole orbit would hold 16 MB of samples at 2e6 steps
        assert _peak_rss_kb(2_000_000) - _peak_rss_kb(1000) < 10 * 1024


def _peak_rss_kb(n_steps):
    """Peak RSS of a fresh process that runs one lyapunov_exponent."""
    code = (
        "import resource, sys\n"
        "from chaoslink.core import LogisticParams, lyapunov_exponent\n"
        "lyapunov_exponent(LogisticParams(3.7), 0.1, int(sys.argv[1]))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(core.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code, str(n_steps)], env=env,
                         capture_output=True, text=True, check=True)
    return int(run.stdout)


class TestBifurcation:
    def _row(self, mu, keep=200):
        rows = bifurcation_scan(mu, mu, 1, settle=1000, keep=keep, x0=0.12)
        return rows[0][1]

    def test_fixed_point_row(self):
        samples = self._row(2.5)
        assert np.all(np.abs(samples - 0.6) < 1e-9)

    def test_period_two_row(self):
        samples = self._row(3.2)
        distinct = sorted({round(v, 8) for v in samples})
        assert len(distinct) == 2
        # independent oracle: roots of f(f(x)) = x that are not fixed points
        mu = 3.2

        def g(x):
            fx = mu * x * (1 - x)
            return mu * fx * (1 - fx) - x

        # brackets chosen to exclude the fixed point 1 - 1/mu = 0.6875
        lo = brentq(g, 0.45, 0.60)
        hi = brentq(g, 0.75, 0.95)
        assert distinct[0] == pytest.approx(lo, abs=1e-6)
        assert distinct[-1] == pytest.approx(hi, abs=1e-6)

    def test_chaotic_row_is_dense(self):
        samples = self._row(3.7)
        assert len({round(v, 6) for v in samples}) > 50

    def test_settle_floor(self):
        with pytest.raises(ValueError):
            bifurcation_scan(3.0, 3.5, 3, settle=10, keep=10, x0=0.1)

    def test_negative_keep_rejected(self):
        with pytest.raises(ValueError, match="keep"):
            bifurcation_scan(3.0, 3.5, 3, settle=100, keep=-1, x0=0.1)


def lyapunov_oracle(mu, k, x0, n_steps, burn_in):
    """Stepwise Lyapunov sum: (value, None), or (None, (step, sample)) for
    the first sample outside (0, k)."""
    x = x0
    if not 0.0 < x < k:
        return None, (0, x)
    for n in range(1, burn_in + 1):
        x = mu * x * (1.0 - x / k)
        if not 0.0 < x < k:
            return None, (n, x)
    total = 0.0
    count = 0
    for n in range(burn_in + 1, burn_in + n_steps + 1):
        deriv = abs(mu * (1.0 - 2.0 * x / k))
        if deriv > 0.0:
            total += np.log(deriv)
            count += 1
        x = mu * x * (1.0 - x / k)
        if not 0.0 < x < k:
            return None, (n, x)
    return (total / count if count else 0.0), None


def bifurcation_oracle(mus, settle, keep, x0, k):
    """Stepwise scan: (rows, None), or (None, (step, sample)) for the first
    sample outside (0, k) of the first escaping mu."""
    rows = []
    for mu in mus:
        x = x0
        if not 0.0 < x < k:
            return None, (0, x)
        for n in range(1, settle + 1):
            x = mu * x * (1.0 - x / k)
            if not 0.0 < x < k:
                return None, (n, x)
        samples = []
        for n in range(settle + 1, settle + keep + 1):
            samples.append(x)
            x = mu * x * (1.0 - x / k)
            if not 0.0 < x < k:
                return None, (n, x)
        rows.append((mu, samples))
    return rows, None


@st.composite
def orbit_starts(draw):
    """(mu, k, x0): interior starts, starts outside (0, k), mu = 4 starts
    that reach k/2 (and so escape to k) after a few steps, and the mu = 2
    fixed point k/2 whose Lyapunov terms are all skipped."""
    k = draw(st.sampled_from([1.0, 2.5, 1024.0]))
    kind = draw(st.sampled_from(["interior", "outside", "preimage", "singular"]))
    if kind == "interior":
        unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        return draw(st.floats(0.5, 4.0)), k, draw(unit) * k
    if kind == "outside":
        return 3.7, k, draw(st.sampled_from([0.0, 1.0, -0.25, 1.5])) * k
    if kind == "singular":
        return 2.0, k, k / 2.0
    x = k / 2.0
    for upper in draw(st.lists(st.booleans(), max_size=12)):
        root = math.sqrt(1.0 - x / k)
        x = k * (1.0 + root) / 2.0 if upper else k * (1.0 - root) / 2.0
    return 4.0, k, x


def _outcome(func, *args):
    try:
        return func(*args), None
    except BasinEscapeError as exc:
        return None, (exc.step, exc.value)


@given(start=orbit_starts(), n_steps=st.integers(1, 80),
       burn_in=st.integers(0, 40), block=st.integers(1, 40))
def test_lyapunov_matches_stepwise_oracle(start, n_steps, burn_in, block):
    mu, k, x0 = start
    with mock.patch.object(core, "_ORBIT_BLOCK", block):
        value, escape = _outcome(lyapunov_exponent, LogisticParams(mu, k), x0,
                                 n_steps, burn_in)
    assert (value, escape) == lyapunov_oracle(mu, k, x0, n_steps, burn_in)
    assert value is None or type(value) is float


@given(start=orbit_starts(), mu_steps=st.integers(0, 4),
       settle=st.integers(100, 130), keep=st.integers(0, 30))
def test_bifurcation_scan_matches_stepwise_oracle(start, mu_steps, settle, keep):
    mu, k, x0 = start
    mu_min = min(mu, 3.0)
    rows, escape = _outcome(bifurcation_scan, mu_min, mu, mu_steps, settle,
                            keep, x0, k)
    mus = np.linspace(mu_min, mu, mu_steps).tolist()
    expected, expected_escape = bifurcation_oracle(mus, settle, keep, x0, k)
    assert escape == expected_escape
    if rows is not None:
        assert [(m, s.tolist()) for m, s in rows] == expected


class TestSpectrum:
    def test_single_tone(self):
        t = np.arange(256)
        report = amplitude_spectrum(np.sin(2 * np.pi * 5 * t / 256))
        assert int(np.argmax(report.magnitudes)) == 5
        assert report.flatness < 0.1

    def test_constant_sequence(self):
        report = amplitude_spectrum(np.full(128, 3.25))
        assert np.all(report.magnitudes == pytest.approx(0.0, abs=1e-9))

    def test_chaotic_orbit_is_noise_like(self):
        orbit = iterate(LogisticParams(3.7), 0.1, 5095)
        report = amplitude_spectrum(orbit.samples[1000:])
        assert report.flatness > 0.5
        bins = report.magnitudes[1:]
        # peak-to-median bound frozen from validation runs (measured ~11-12x)
        assert bins.max() < 20.0 * np.median(bins)

    def test_short_sequence_rejected(self):
        with pytest.raises(ValueError):
            amplitude_spectrum(np.zeros(63))

    def test_flatness_bounds(self):
        rng = np.random.default_rng(0)
        report = amplitude_spectrum(rng.normal(size=1024))
        assert 0.0 <= report.flatness <= 1.0


def test_sensitive_dependence_regression():
    # frozen from a validation run: separation from x0 = 0.1 with a 1e-9
    # perturbation first exceeds 0.1 at step 61
    p = LogisticParams(3.7)
    a = iterate(p, 0.1, 70).samples
    b = iterate(p, 0.1 + 1e-9, 70).samples
    sep = np.abs(a - b)
    first = int(np.argmax(sep > 0.1))
    assert first == 61
