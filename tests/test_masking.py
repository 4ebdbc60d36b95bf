import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chaoslink.masking import OPERATORS, coefficients, forward, recover, threshold_detect


class TestOperators:
    def test_zero_symbol_identity(self):
        assert forward("additive", 0.333, 0.0) == 0.333

    def test_additive_forward(self):
        assert forward("additive", 0.333, 1.0) == pytest.approx(1.333)

    @given(x=st.floats(0.001, 0.999), i=st.floats(-2.0, 2.0))
    def test_additive_round_trip(self, x, i):
        z = forward("additive", x, i)
        assert recover("additive", z, x) == pytest.approx(i, abs=1e-12)

    @given(x=st.floats(0.01, 0.999), i=st.floats(-0.5, 0.5))
    def test_multiplicative_round_trip(self, x, i):
        z = forward("multiplicative", x, i)
        assert recover("multiplicative", z, x) == pytest.approx(i, abs=1e-9)

    def test_multiplicative_guards_zero_receiver(self):
        with pytest.raises(ZeroDivisionError):
            recover("multiplicative", 0.5, 0.0)
        with pytest.raises(ZeroDivisionError):
            recover("multiplicative", np.array([0.5, 0.5]), np.array([0.3, 1e-13]))

    @pytest.mark.parametrize("operator", OPERATORS)
    def test_elementwise_on_arrays(self, operator):
        x, i = np.array([0.2, 0.5, 0.9]), np.array([0.0, 0.1, -0.2])
        z, y = forward(operator, x, i), x + 1e-3
        assert z.tolist() == [forward(operator, a, b) for a, b in zip(x, i)]
        assert (recover(operator, z, y).tolist()
                == [recover(operator, a, b) for a, b in zip(z, y)])

    def test_unknown_operator(self):
        for call in (forward, recover):
            with pytest.raises(ValueError, match="unknown operator 'nope'"):
                call("nope", 0.5, 0.5)


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(x=finite, i=finite)
# x * (1 + i) is -0.0
@example(x=-0.5, i=-1.0)
@example(x=-0.0, i=0.5)
def test_forward_is_affine_in_x(x, i):
    # x * scale + offset with (1, i) and (1 + i, 0): the operators' own
    # formulas, a multiplicative -0.0 read as +0.0
    assert _bits(forward("additive", x, i)) == _bits(x + i)
    assert _bits(forward("multiplicative", x, i)) == _bits(x * (1.0 + i) + 0.0)
    for operator in OPERATORS:
        scale, offset = coefficients(operator, i)
        assert _bits(forward(operator, x, i)) == _bits(x * scale + offset)


@given(x=st.floats(0.0, exclude_min=True, allow_infinity=False),
       operator=st.sampled_from(OPERATORS))
def test_a_zero_symbol_leaves_a_basin_state_as_it_is(x, operator):
    # the hop kernel's 0-bit line level is the drive state itself
    assert _bits(forward(operator, x, 0.0) + 0.0) == _bits(x)


class TestRecovery:
    def test_exact_at_sync(self):
        x = 0.52
        assert recover("additive", forward("additive", x, 1.0), x) == pytest.approx(1.0)

    def test_transient_fringe(self):
        # i = 0 with residual error e = 0.2: i_hat = i - e
        x = 0.3
        y = x + 0.2
        assert recover("additive", forward("additive", x, 0.0), y) == pytest.approx(-0.2)


class TestThresholdDetect:
    def test_clean_one_block(self):
        assert threshold_detect([1.0, 1.0, 1.0, 1.0], 4, 0.5).tolist() == [1]

    def test_clean_zero_block(self):
        assert threshold_detect([0.0, 0.0, 0.0, 0.0], 4, 0.5).tolist() == [0]

    def test_fringe_contaminated_block(self):
        assert threshold_detect([0.9, 1.2, -0.3, 0.8], 4, 0.5).tolist() == [1]

    def test_tie_decides_low(self):
        assert threshold_detect([0.5, 0.5], 2, 0.5).tolist() == [0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            threshold_detect([1.0, 0.0, 1.0], 2, 0.5)

    def test_hold_below_one(self):
        with pytest.raises(ValueError, match=r"^hold must be >= 1$"):
            threshold_detect(np.zeros(4), 0, 0.5)

    def test_overflowing_block_mean_is_quiet(self):
        # eight estimates of 4.28e307 (an amplitude at about the largest k a
        # config accepts) sum past the float range: the mean is inf, quietly
        assert threshold_detect(np.full(16, 4.28e307), 8, 2.14e307).tolist() == [1, 1]


def test_masking_opacity():
    # Correlation between the bit sequence and the line signal, measured
    # over 1e4 samples.  For additive masking the correlation grows with
    # the amplitude; the < 0.1 bound holds up to a ~ 0.03k (validated and
    # frozen; at a = 0.5k the additive line signal correlates strongly).
    rng = np.random.default_rng(7)
    steps, hold = 10_000, 8
    bits = np.repeat((rng.random(steps // hold) < 0.5).astype(float), hold)
    x = 0.1
    xs = np.empty(steps)
    for n in range(steps):
        xs[n] = x
        x = 3.7 * x * (1.0 - x)
    z = xs + 0.03 * bits
    assert abs(np.corrcoef(bits, z)[0, 1]) < 0.1
