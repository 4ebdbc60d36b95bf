"""Chaotic masking: invertible composition of information with drive states.

A registered operator pairs a forward scramble f(x, i) -> z with an
exact inverse recover(z, y) -> i_hat.  At perfect synchronization
(y = x) recovery is exact; before that, i_hat carries transient fringes.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bitcodec import decide

DEFAULT_OPERATOR = "additive"
DEFAULT_HOLD = 8
DEFAULT_SETTLE = 25

_MULTIPLICATIVE_GUARD = 1e-12


@dataclass(frozen=True)
class InvertibleOperator:
    """Forward scramble and its exact inverse, registered by name.

    Both also take numpy arrays and then work elementwise.
    """

    name: str
    forward: Callable[[float, float], float]
    recover: Callable[[float, float], float]


def _mul_recover(z, y):
    if np.any(np.abs(y) < _MULTIPLICATIVE_GUARD):
        raise ZeroDivisionError(
            "multiplicative recovery undefined: receiver state too close to 0"
        )
    return z / y - 1.0


_REGISTRY: dict[str, InvertibleOperator] = {}


def register_operator(op: InvertibleOperator) -> None:
    if op.name in _REGISTRY:
        raise ValueError(f"operator {op.name!r} already registered")
    _REGISTRY[op.name] = op


def get_operator(name: str) -> InvertibleOperator:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown operator {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


register_operator(
    InvertibleOperator(
        name="additive",
        forward=lambda x, i: x + i,
        recover=lambda z, y: z - y,
    )
)
register_operator(
    InvertibleOperator(
        name="multiplicative",
        forward=lambda x, i: x * (1.0 + i),
        recover=_mul_recover,
    )
)


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
