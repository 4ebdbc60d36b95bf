import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaoslink.masking import (
    InvertibleOperator,
    get_operator,
    register_operator,
    threshold_detect,
)

additive = get_operator("additive")
multiplicative = get_operator("multiplicative")


class TestOperators:
    def test_zero_symbol_identity(self):
        assert additive.forward(0.333, 0.0) == 0.333

    def test_additive_forward(self):
        assert additive.forward(0.333, 1.0) == pytest.approx(1.333)

    @given(x=st.floats(0.001, 0.999), i=st.floats(-2.0, 2.0))
    def test_additive_round_trip(self, x, i):
        assert additive.recover(additive.forward(x, i), x) == pytest.approx(i, abs=1e-12)

    @given(x=st.floats(0.01, 0.999), i=st.floats(-0.5, 0.5))
    def test_multiplicative_round_trip(self, x, i):
        z = multiplicative.forward(x, i)
        assert multiplicative.recover(z, x) == pytest.approx(i, abs=1e-9)

    def test_multiplicative_guards_zero_receiver(self):
        with pytest.raises(ZeroDivisionError):
            multiplicative.recover(0.5, 0.0)

    def test_unknown_operator(self):
        with pytest.raises(KeyError):
            get_operator("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_operator(
                InvertibleOperator("additive", lambda x, i: x, lambda z, y: z)
            )


class TestRecovery:
    def test_exact_at_sync(self):
        x = 0.52
        assert additive.recover(additive.forward(x, 1.0), x) == pytest.approx(1.0)

    def test_transient_fringe(self):
        # i = 0 with residual error e = 0.2: i_hat = i - e
        x = 0.3
        y = x + 0.2
        assert additive.recover(additive.forward(x, 0.0), y) == pytest.approx(-0.2)


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
