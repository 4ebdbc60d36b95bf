"""Bit-level framing for the digital path.

An n-bit information word is spread by repetition into an m-bit frame
(spreading factor r = m/n), XOR-masked with m carrier bits drawn from
the transmitter states, and despread on the receiver side by a block
correlator that averages each group of r received bits.
"""

from dataclasses import dataclass

import numpy as np

DEFAULT_M = 16
DEFAULT_N = 4


@dataclass(frozen=True)
class FrameSpec:
    """Carrier bits per frame (m) and information bits per frame (n)."""

    m: int = DEFAULT_M
    n: int = DEFAULT_N

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("m and n must be positive")
        if self.n > self.m or self.m % self.n != 0:
            raise ValueError(
                f"n must divide m exactly with n <= m, got m={self.m} n={self.n}"
            )

    @property
    def r(self) -> int:
        return self.m // self.n


def _as_bits(seq, block: int = 1) -> np.ndarray:
    """seq as uint8 bits, checked; a uint8 array is returned as it is."""
    bits = np.asarray(seq)
    if bits.dtype != np.uint8:
        bits = bits.astype(np.int64, copy=False)
    if bits.size and not (bits.min() >= 0 and bits.max() <= 1):
        raise ValueError("bit sequence must contain only 0 and 1")
    if bits.size % block != 0:
        raise ValueError(f"expected a multiple of {block} bits, got {bits.size}")
    return bits.astype(np.uint8, copy=False)


def spread(info, spec: FrameSpec) -> np.ndarray:
    """Repetition expansion: each info bit duplicated r times.

    Takes any whole number of n-bit words.
    """
    return np.repeat(_as_bits(info, spec.n), spec.r)


def mask_bits(spread_bits, carrier_bits) -> np.ndarray:
    """Elementwise exclusive-or; self-inverse."""
    a = _as_bits(spread_bits)
    b = _as_bits(carrier_bits)
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    return np.bitwise_xor(a, b)


def correlate(received, spec: FrameSpec) -> np.ndarray:
    """Block means: r received bits per information position.

    Takes any whole number of m-bit frames.  Each value lies in [0, 1];
    exactly 1 (0) when the whole block is ones (zeros), strictly interior
    otherwise.
    """
    bits = _as_bits(received, spec.m)
    # the j-th bits of all blocks at once, summed exactly in int64
    sums = bits[::spec.r].astype(np.int64)
    for j in range(1, spec.r):
        sums += bits[j::spec.r]
    return sums / spec.r


def decide(block_means, threshold: float = 0.5) -> np.ndarray:
    """Hard decision after the correlator; a tie at threshold decides 0."""
    means = np.asarray(block_means, dtype=float)
    return (means > threshold).astype(np.uint8)


def lsb_bits(states) -> np.ndarray:
    """Carrier bits: least-significant bit of each fixed-point state."""
    # the low byte of a two's-complement state keeps its least-significant bit
    return np.bitwise_and(np.asarray(states, dtype=np.int64), 1,
                          dtype=np.uint8, casting="unsafe")
