import ast
import math
from fractions import Fraction

import numpy as np
import pytest
from fx_oracle import fx_control, fx_step, saturate16
from hypothesis import given
from hypothesis import strategies as st
from law_oracle import ControllerGains, control

from chaoslink import _accel
from chaoslink.core import LogisticParams, step
from chaoslink.fixedpoint import FixedParams, fx_run_sync

PARAMS = FixedParams.from_real(3.7, 0.5)  # mu_q=15155, rho_q=2048, k=1024


def worst_numerator(step, bounds):
    """A bound on |numerator| of the _accel step `step`, whose body is
    numerator // denom: the numerator, with every name bound to its
    worst magnitude in bounds and each - read as +."""
    def worst(node):
        if isinstance(node, ast.Name):
            return bounds[node.id]
        if isinstance(node, ast.Constant):
            return abs(node.value)
        left, right = worst(node.left), worst(node.right)
        if isinstance(node.op, ast.Mult):
            return left * right
        assert isinstance(node.op, (ast.Add, ast.Sub))
        return left + right

    quotient = ast.parse(_accel._STEPS[step][1], mode="eval").body
    assert isinstance(quotient.op, ast.FloorDiv) and ast.unparse(quotient.right) == "denom"
    return worst(quotient.left)


def oracle_step(mu_q, k, frac, x):
    # exact rational arithmetic, floored once
    return math.floor(Fraction(mu_q * x * (k - x), frac * k))


def oracle_control(mu_q, rho_q, k, frac, e, d):
    return math.floor(Fraction((mu_q * (e + 2 * d - k) + rho_q * k) * e, frac * k))


class TestFormats:
    def test_frac_bits_range(self):
        for bits in (0, 16):
            with pytest.raises(ValueError, match="frac_bits"):
                FixedParams.from_real(3.7, 0.5, frac_bits=bits)
        for bits in (1, 15):
            assert FixedParams.from_real(3.7, 0.5, frac_bits=bits).frac_bits == bits

    def test_coefficient_quantization(self):
        assert PARAMS.mu_q == 15155
        assert PARAMS.rho_q == 2048
        assert PARAMS.k == 1024

    def test_mu_range_enforced(self):
        with pytest.raises(ValueError):
            FixedParams(mu_q=4096 * 5, rho_q=0)

    def test_state_range_enforced(self):
        with pytest.raises(ValueError):
            fx_run_sync(PARAMS, 122, 40_000, 10)


class TestStep:
    def test_wide_integer_oracle(self):
        assert fx_step(PARAMS, 122) == 397
        assert oracle_step(15155, 1024, 4096, 122) == 397

    def test_zero_fixed_point(self):
        assert fx_step(PARAMS, 0) == 0

    def test_boundary_zero(self):
        assert fx_step(PARAMS, 1024) == 0

    @given(x=st.integers(-32768, 32767))
    def test_matches_rational_oracle(self, x):
        expected = oracle_step(PARAMS.mu_q, PARAMS.k, PARAMS.frac, x)
        assert fx_step(PARAMS, x) == saturate16(expected)[0]

    def test_quantization_consistency_exhaustive(self):
        # <= 2 LSB against the float map over every drive state
        p = LogisticParams(3.7, 1.0)
        for x in range(1, 1024):
            quantized = fx_step(PARAMS, x)
            exact = 1024 * step(p, x / 1024.0)
            assert abs(quantized - exact) <= 2.0

    def test_drive_image_stays_in_basin(self):
        # exhaustive: the truncated map never ejects a drive state
        images = {fx_step(PARAMS, x) for x in range(1, 1024)}
        assert min(images) > 0
        assert max(images) < 1024


class TestControl:
    def test_zero_error(self):
        assert fx_control(PARAMS, 0, 122) == 0

    def test_wide_integer_oracle(self):
        expected = oracle_control(15155, 2048, 1024, 4096, -1146, 122)
        assert fx_control(PARAMS, -1146, 122) == expected

    def test_small_error_matches_float_controller(self):
        # sweep oracle: quantized and float control agree within 1 LSB
        gains = ControllerGains(rho=0.5, params=LogisticParams(3.7, 1024.0))
        for e in range(-2, 3):
            for d in (3, 122, 511, 947):
                quantized = fx_control(PARAMS, e, d)
                exact = control(gains, float(e), float(d))
                assert abs(quantized - exact) <= 1.0

    @given(e=st.integers(-65536, 65536), d=st.integers(1, 1023))
    def test_matches_rational_oracle(self, e, d):
        assert fx_control(PARAMS, e, d) == oracle_control(
            PARAMS.mu_q, PARAMS.rho_q, PARAMS.k, PARAMS.frac, e, d
        )


class TestSyncRun:
    def test_reference_initial_conditions(self):
        run = fx_run_sync(PARAMS, 122, -1024, 200)
        assert run.first_equal is not None
        assert run.first_equal <= 64
        n0 = run.first_equal
        assert np.array_equal(run.x[n0:], run.y[n0:])

    def test_equal_start_is_absorbed(self):
        run = fx_run_sync(PARAMS, 122, 122, 100)
        assert run.first_equal == 0
        assert np.array_equal(run.x, run.y)

    def test_absorption_after_first_equality(self):
        run = fx_run_sync(PARAMS, 122, -1024, 500)
        n0 = run.first_equal
        assert np.array_equal(run.x[n0:], run.y[n0:])

    def test_determinism(self):
        a = fx_run_sync(PARAMS, 122, -1024, 1000)
        b = fx_run_sync(PARAMS, 122, -1024, 1000)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    def test_drive_basin_long_run(self):
        orbit = fx_run_sync(PARAMS, 122, 122, 10**6).x
        assert orbit.min() > 0
        assert orbit.max() < 1024

    def test_carrier_cycle(self):
        # k = 1024, mu = 3.7: x0 = 122 settles into period 2 on {400, 901}
        for y0 in (-1024, 122):
            run = fx_run_sync(PARAMS, 122, y0, 200)
            assert (run.transient, run.period) == (36, 2)
            assert set(run.x[36:].tolist()) == {400, 901}
            assert run.x[35] not in (400, 901)

    def test_no_cycle_within_the_run(self):
        short = fx_run_sync(PARAMS, 122, -1024, 30)
        assert short.first_equal is not None
        assert (short.transient, short.period) == (None, None)
        unsynced = fx_run_sync(FixedParams.from_real(3.7, 2.0), 122, -1024, 3000)
        assert unsynced.first_equal is None
        assert (unsynced.transient, unsynced.period) == (None, None)

    def test_drive_start_validation(self):
        with pytest.raises(ValueError):
            fx_run_sync(PARAMS, 0, 5, 10)

    def test_saturation_audit(self):
        # no wide numerator of fx_sync_run overflows int64 for any 16-bit
        # input pair, at the README parameters or at the widest FixedParams
        # accepts: |x|, |y|, |d| <= 2**15, |e| <= 2**16, k <= 2**15,
        # mu_q <= 4*frac, |rho_q| <= 8*frac, so |gain| = |rho_q| * k.  The
        # numerators are those of the steps _accel writes as calls of
        # _fx_map and _law, which takes the gain.
        frac_bits, k = 15, 2**15
        frac = 1 << frac_bits
        widest = FixedParams(mu_q=4 * frac, rho_q=-8 * frac, k=k, frac_bits=frac_bits)
        state, error = 2**15, 2**16
        for params in (PARAMS, widest):
            bounds = dict(mu=params.mu_q, gain=abs(params.rho_q) * params.k, k=params.k,
                          x=state, y=state, d=state, e=error)
            drive = worst_numerator("_fx_map_step", bounds)
            response = worst_numerator("_fx_response_step", bounds)
            assert max(drive, response) < 2**62
        # the derived bounds at the widest parameters are the hand-written ones
        mu_q, rho_q = widest.mu_q, abs(widest.rho_q)
        worst_state = mu_q * state * (k + state)
        worst_ctrl = (mu_q * (error + 2 * state + k) + rho_q * k) * error
        assert (drive, response) == (worst_state, worst_state + worst_ctrl)
        for bad in (dict(rho_q=8 * frac), dict(rho_q=-8 * frac - 1),
                    dict(mu_q=4 * frac + 1), dict(k=k + 1), dict(k=0),
                    dict(k=1024.0), dict(frac_bits=16), dict(frac_bits=0)):
            fields = dict(mu_q=4 * frac, rho_q=0, k=k, frac_bits=frac_bits) | bad
            with pytest.raises(ValueError):
                FixedParams(**fields)
        rng = np.random.default_rng(0)
        for _ in range(200):
            y0 = int(rng.integers(-32768, 32768))
            run = fx_run_sync(PARAMS, 122, y0, 64)
            assert np.all(run.x >= -32768) and np.all(run.x <= 32767)
            assert np.all(run.y >= -32768) and np.all(run.y <= 32767)
