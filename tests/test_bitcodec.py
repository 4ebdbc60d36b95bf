import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaoslink.bitcodec import (
    FrameSpec,
    correlate,
    decide,
    lsb_bits,
    mask_bits,
    spread,
)


class TestFrameSpec:
    def test_defaults(self):
        spec = FrameSpec()
        assert (spec.m, spec.n, spec.r) == (16, 4, 4)

    @pytest.mark.parametrize("m,n", [(16, 5), (8, 16), (0, 1), (12, 0)])
    def test_invalid_shapes(self, m, n):
        with pytest.raises(ValueError):
            FrameSpec(m=m, n=n)


class TestSpread:
    def test_reference_pattern(self):
        assert spread([1, 0], FrameSpec(8, 2)).tolist() == [1, 1, 1, 1, 0, 0, 0, 0]

    def test_unit_spreading(self):
        assert spread([0], FrameSpec(1, 1)).tolist() == [0]

    def test_per_block_repetition(self):
        assert spread([1, 1, 0], FrameSpec(6, 3)).tolist() == [1, 1, 1, 1, 0, 0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spread([1, 0, 1], FrameSpec(8, 2))

    def test_non_bit_rejected(self):
        with pytest.raises(ValueError):
            spread([1, 2], FrameSpec(8, 2))


class TestMaskBits:
    def test_zero_carrier_identity(self):
        assert mask_bits([1, 0, 1], [0, 0, 0]).tolist() == [1, 0, 1]

    def test_self_cancellation(self):
        assert mask_bits([1, 0, 1], [1, 0, 1]).tolist() == [0, 0, 0]

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=64))
    def test_involution(self, bits):
        carrier = np.roll(np.array(bits, dtype=np.uint8), 1)
        assert mask_bits(mask_bits(bits, carrier), carrier).tolist() == bits

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mask_bits([1, 0], [1])


class TestCorrelate:
    def test_reference_case(self):
        means = correlate([1, 1, 1, 1, 0, 0, 0, 0], FrameSpec(8, 2))
        assert means.tolist() == [1.0, 0.0]

    def test_hand_mean(self):
        assert correlate([1, 0, 1, 1], FrameSpec(4, 1)).tolist() == [0.75]

    def test_all_zeros(self):
        assert correlate([0, 0], FrameSpec(2, 1)).tolist() == [0.0]

    def test_partial_frame_rejected(self):
        with pytest.raises(ValueError):
            correlate([1, 1, 0, 0, 1, 1], FrameSpec(4, 2))

    @given(st.lists(st.integers(0, 1), min_size=16, max_size=16))
    def test_output_bounds(self, bits):
        spec = FrameSpec(16, 4)
        means = correlate(bits, spec)
        assert np.all(means >= 0.0) and np.all(means <= 1.0)
        scaled = means * spec.r
        assert np.allclose(scaled, np.round(scaled))


class TestDecide:
    def test_clean_pair(self):
        assert decide([1.0, 0.0]).tolist() == [1, 0]

    def test_majority(self):
        assert decide([0.75]).tolist() == [1]

    def test_tie_decides_low(self):
        assert decide([0.5]).tolist() == [0]


class TestEndToEnd:
    @given(
        word=st.lists(st.integers(0, 1), min_size=4, max_size=4),
        carrier=st.lists(st.integers(0, 1), min_size=16, max_size=16),
    )
    def test_identity_under_perfect_sync(self, word, carrier):
        spec = FrameSpec(16, 4)
        line = mask_bits(spread(word, spec), carrier)
        recovered = decide(correlate(mask_bits(line, carrier), spec))
        assert recovered.tolist() == word

    def test_single_flip_per_block_is_absorbed(self):
        # exhaustive for r = 4: flipping < ceil(r/2) bits per block keeps
        # every decision unchanged
        spec = FrameSpec(16, 4)
        word = [1, 0, 1, 1]
        clean = spread(word, spec)
        for positions in itertools.product(range(spec.r), repeat=spec.n):
            corrupted = clean.copy()
            for block, offset in enumerate(positions):
                idx = block * spec.r + offset
                corrupted[idx] ^= 1
            assert decide(correlate(corrupted, spec)).tolist() == word

    @pytest.mark.parametrize("r", [2, 4, 6, 8])
    def test_minority_flips_all_blocks(self, r):
        spec = FrameSpec(2 * r, 2)
        word = [1, 0]
        clean = spread(word, spec)
        flips = (r - 1) // 2  # strictly fewer than ceil(r/2)
        corrupted = clean.copy()
        for block in range(2):
            for j in range(flips):
                corrupted[block * r + j] ^= 1
        assert decide(correlate(corrupted, spec)).tolist() == word


def test_lsb_extraction():
    assert lsb_bits([122, 697, -1024, 3]).tolist() == [0, 1, 0, 1]
