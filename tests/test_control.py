import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from law_oracle import (
    STABLE_ASYMPTOTIC,
    STABLE_MARGINAL,
    UNSTABLE,
    ControllerGains,
    control,
    lyapunov_delta,
    step_response,
)

from chaoslink.core import LogisticParams, step


def gains(mu=3.7, k=1.0, rho=0.5):
    return ControllerGains(rho=rho, params=LogisticParams(mu, k))


class TestControl:
    def test_zero_error_gives_zero_effort(self):
        assert control(gains(), 0.0, 0.7) == 0.0

    def test_hand_value(self):
        # (3.7*(-1.9) + 0.5) * (-1.1)
        assert control(gains(), -1.1, 0.1) == pytest.approx(7.183, abs=1e-12)

    def test_vanishing_mu_bracket(self):
        # e + 2d - k = 0 leaves rho*k*e/k
        assert control(gains(), 0.4, 0.3) == pytest.approx(0.2, abs=1e-12)


class TestStepResponse:
    def test_hand_composition(self):
        g = gains()
        y1 = step_response(g, -1.0, 0.1)
        assert y1 == pytest.approx(-0.217, abs=1e-12)
        # the error advances by the gain: -1.1 -> -0.55
        assert y1 - step(g.params, 0.1) == pytest.approx(-0.55, abs=1e-12)

    def test_zero_error_is_pure_step(self):
        g = gains()
        assert step_response(g, 0.3, 0.3) == step(g.params, 0.3)

    def test_deadbeat(self):
        g = gains(rho=0.0)
        assert step_response(g, 5.0, 0.2) == pytest.approx(
            step(g.params, 0.2), abs=1e-12
        )

    @given(
        mu=st.floats(0.01, 4.0),
        k=st.floats(0.01, 100.0),
        rho=st.floats(-2.0, 2.0),
        yf=st.floats(-10.0, 10.0),
        df=st.floats(0.001, 0.999),
    )
    def test_exact_contraction_identity(self, mu, k, rho, yf, df):
        # step_response(y, d) - step(d) = rho*(y - d) for arbitrary d
        g = gains(mu, k, rho)
        y = yf * k
        d = df * k
        lhs = step_response(g, y, d) - step(g.params, d)
        rhs = rho * (y - d)
        scale = max(abs(mu * y * y / k), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-9 * scale


class TestErrorAlgebra:
    def test_marginal_gain_preserves_error(self):
        g = gains(rho=1.0)
        x, y = 0.1, 0.4
        for _ in range(1000):
            y = step_response(g, y, x)
            x = step(g.params, x)
            assert y - x == pytest.approx(0.3, abs=1e-9)

    def test_closed_loop_matches_closed_form(self):
        g = gains()
        x, y = 0.1, -1.0
        e0 = y - x
        for n in range(1, 60):
            y = step_response(g, y, x)
            x = step(g.params, x)
            assert abs((y - x) - g.rho**n * e0) <= 1e-9 * abs(e0) * n


class TestLyapunovAccounting:
    def test_hand_value(self):
        assert lyapunov_delta(0.5, -1.1) == pytest.approx(-0.9075)

    def test_marginal(self):
        assert lyapunov_delta(1.0, 0.77) == 0.0

    def test_origin(self):
        assert lyapunov_delta(0.9, 0.0) == 0.0

    @given(rho=st.floats(-1.0, 1.0), e=st.floats(-100.0, 100.0))
    @example(rho=0.5, e=-1.1)
    @example(rho=0.9999999999999999, e=1.13336857356803e-156)
    @example(rho=0.5, e=1e-160)
    def test_monotone_for_contractive_gains(self, rho, e):
        dv = lyapunov_delta(rho, e)
        assert dv <= 0.0
        # The exact decrement e^2 (1 - rho^2) can lie below the smallest
        # subnormal even when e*e does not (e ~ 1e-156, rho one ulp below
        # 1), in which case it rounds to a clean -0.0. From the smallest
        # subnormal up it cannot: a rounded e*e of m subnormal units would
        # need a rounded 1 - rho^2 of at most 1/(2m), while the exact
        # factors put it at 1/(m + 1/2) or more, and 1 - rho*rho is
        # accurate to far better than that 25% gap.
        exact = Fraction(e) ** 2 * (1 - Fraction(rho) ** 2)
        if exact >= math.ulp(0.0):
            assert dv < 0.0

    def test_decrement_below_float_range_is_zero(self):
        # e*e is a subnormal 1.28e-312; times 1 - rho^2 = 2.2e-16 it is
        # far below the smallest subnormal, so no negative float is nearer
        assert lyapunov_delta(0.9999999999999999, 1.13336857356803e-156) == 0.0

    @given(e=st.floats(-1e6, 1e6))
    def test_radially_unbounded(self, e):
        # V(2e) = 4 V(e)
        assert (2 * e) ** 2 == pytest.approx(4 * e * e, rel=1e-12)

    def test_unstable_gain_grows_exactly(self):
        g = gains(rho=1.2)
        x, y = 0.1, -1.0
        e = y - x
        for _ in range(30):
            y = step_response(g, y, x)
            x = step(g.params, x)
            assert (y - x) / e == pytest.approx(1.2, rel=1e-9)
            e = y - x


class TestStabilityClass:
    @pytest.mark.parametrize(
        "rho,expected",
        [
            (0.5, STABLE_ASYMPTOTIC),
            (-0.99, STABLE_ASYMPTOTIC),
            (1.0, STABLE_MARGINAL),
            (-1.0, STABLE_MARGINAL),
            (1.2, UNSTABLE),
        ],
    )
    def test_classification(self, rho, expected):
        assert gains(rho=rho).stability_class == expected


class TestDegenerateCondition:
    """On x + y = k the uncontrolled maps give equal next states."""

    def test_mirror_pair_synchronizes_in_one_step(self):
        p = LogisticParams(3.7)
        assert step(p, 0.3) == pytest.approx(step(p, 0.7), abs=1e-15)
        assert step(p, 0.3) == pytest.approx(0.777, abs=1e-12)

    @given(x=st.floats(0.001, 0.999), k=st.floats(0.01, 100.0))
    def test_mirror_identity_over_random_points(self, x, k):
        p = LogisticParams(3.7, k)
        y = k - x * k
        assert step(p, x * k) == pytest.approx(step(p, y), rel=1e-12, abs=1e-12 * k)
