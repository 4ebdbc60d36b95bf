"""Chaotic masking: invertible composition of information with drive states.

Each operator pairs a forward scramble z = forward(op, x, i) with an exact
inverse i_hat = recover(op, z, y).  At perfect synchronization (y = x)
recovery is exact; before that, i_hat carries transient fringes.  Both
take numpy arrays and then work elementwise.
"""

import numpy as np

from ._accel import _line, quiet
from .bitcodec import decide

OPERATORS = ("additive", "multiplicative")
DEFAULT_OPERATOR = "additive"
DEFAULT_HOLD = 8
DEFAULT_SETTLE = 25

_MULTIPLICATIVE_GUARD = 1e-12


def coefficients(operator: str, i):
    """(scale, offset) of the line sample _line(x, scale, offset) for drive
    state x carrying information i: both operators are affine in x."""
    if operator == "additive":
        return 1.0, i
    if operator == "multiplicative":
        return 1.0 + i, 0.0
    raise ValueError(f"unknown operator {operator!r}")


# A line sample, an estimate or a block mean of estimates may overflow to
# inf, as the kernels' states do, and just as quietly.
@quiet
def forward(operator: str, x, i):
    """Line sample for drive state x carrying information i: the _accel
    step _line with the operator's coefficients, so the hop kernel's
    masked samples are the same expression.  A NaN i gives a NaN sample,
    which marks a row that carries no line sample."""
    return _line(x, *coefficients(operator, i))


@quiet
def recover(operator: str, z, y):
    """Information estimate from line sample z and receiver state y.  A
    NaN z, a row that carries no line sample, gives a NaN estimate, and
    multiplicative recovery does not guard its y."""
    if operator == "additive":
        return z - y
    if operator == "multiplicative":
        near = np.abs(y) < _MULTIPLICATIVE_GUARD
        if near.any() and np.any(near & ~np.isnan(z)):
            raise ZeroDivisionError(
                "multiplicative recovery undefined: receiver state too close to 0"
            )
        return z / y - 1.0
    raise ValueError(f"unknown operator {operator!r}")


@quiet
def threshold_detect(symbols, hold: int, threshold: float):
    """Hard bit decisions from raw symbol estimates.

    Averages each consecutive block of `hold` estimates and decides each
    block mean with bitcodec.decide.
    """
    if hold < 1:
        raise ValueError("hold must be >= 1")
    data = np.asarray(symbols, dtype=float)
    if data.size % hold != 0:
        raise ValueError(
            f"symbol count {data.size} is not divisible by hold {hold}"
        )
    return decide(data.reshape(-1, hold).mean(axis=1), threshold)
