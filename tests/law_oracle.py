"""Scalar references for the variable feedback controller.

The paper proves that its controller asymptotically stabilizes the error
dynamics when the information source is off.  The control law
u = [mu(e + 2d - k) + rho*k] * e / k collapses the closed-loop error to
e' = rho * e for any drive-side value d available to the receiver (the
drive state when idle, the masked line signal during transmission), and
V = e^2 then changes by -e^2 (1 - rho^2) per step: it falls for |rho| < 1,
stays for |rho| = 1 and grows otherwise.

The package runs the law only inside its kernels, as _accel.control_effort
and the response steps; no session calls these functions.  law writes the
law out here on its own, in the kernels' order of operations, so the
kernel tests and the stepwise hop oracle ask for the same bits of an
independent formula and never call the kernel's own law; it takes any
floats, where control takes validated ControllerGains.  These are the
one-step controller, closed-loop step and Lyapunov accounting that
tests/test_control.py checks against the proof, that acceptance criterion
3 (Lyapunov classification and gain regimes) steps, and that the kernel
and fixed-point tests compare the float law against.  Acceptance criterion
2 checks the same e_n = rho^n * e_0 on a whole idle sync session.
"""

from dataclasses import dataclass

from chaoslink.core import LogisticParams, step

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


def law(mu, k, rho, e, d):
    """Control effort u = [mu(e + 2d - k) + rho*k] * e / k for error e and
    drive-side value d, on any floats or float64 arrays."""
    return (mu * (e + (d + d) - k) + rho * k) * e / k


def control(gains: ControllerGains, e: float, d: float) -> float:
    """The law's control effort under gains."""
    return law(gains.params.mu, gains.params.k, gains.rho, e, d)


def step_response(gains: ControllerGains, y: float, d: float) -> float:
    """Next response state: logistic step plus control with e = y - d.

    Satisfies step_response(y, d) - step(d) = rho * (y - d) for all real
    y and d.
    """
    return step(gains.params, y) + control(gains, y - d, d)


def lyapunov_delta(rho: float, e: float) -> float:
    """One-step change of V = e^2 under e' = rho*e: -e^2 (1 - rho^2)."""
    return -(e * e) * (1.0 - rho * rho)
