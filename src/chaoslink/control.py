"""Variable feedback controller and synchronization error algebra.

The control law u = [mu(e + 2d - k) + rho*k] * e / k collapses the
closed-loop error to e' = rho * e for any drive-side value d available
to the receiver (the drive state when idle, the masked line signal
during transmission).
"""

from dataclasses import dataclass

from . import _accel
from .core import LogisticParams, step

STABLE_ASYMPTOTIC = "globally_asymptotically_stable"
STABLE_MARGINAL = "stable"
UNSTABLE = "unstable"


@dataclass(frozen=True)
class ControllerGains:
    """Feedback gain rho plus the map parameters it controls.

    rho is not range-restricted: experiments with unstable gains are
    legitimate, so the stability class is reported, never enforced.
    """

    rho: float
    params: LogisticParams

    @property
    def stability_class(self) -> str:
        a = abs(self.rho)
        if a < 1.0:
            return STABLE_ASYMPTOTIC
        if a == 1.0:
            return STABLE_MARGINAL
        return UNSTABLE


def control(gains: ControllerGains, e: float, d: float) -> float:
    """Control effort for error e and drive-side value d."""
    return _accel.control_effort(gains.params.mu, gains.params.k, gains.rho, e, d)


def step_response(gains: ControllerGains, y: float, d: float) -> float:
    """Next response state: logistic step plus control with e = y - d.

    Satisfies step_response(y, d) - step(d) = rho * (y - d) for all real
    y and d.
    """
    return step(gains.params, y) + control(gains, y - d, d)


def lyapunov_delta(rho: float, e: float) -> float:
    """One-step change of V = e^2 under e' = rho*e: -e^2 (1 - rho^2)."""
    return -(e * e) * (1.0 - rho * rho)

