"""The response kernel against the scalar reference functions."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from chaoslink import _accel
from chaoslink.control import ControllerGains, control, step_response
from chaoslink.core import LogisticParams, step
from chaoslink.masking import get_operator

STEPS = 200


def open_interval(lo, hi):
    return st.floats(lo, hi, exclude_min=True, exclude_max=True)


@given(
    mu=open_interval(3.0, 4.0),
    rho=open_interval(-0.95, 0.95),
    x0=open_interval(0.05, 0.95),
    y0=st.floats(-1.0, 2.0),
    amplitude=st.floats(0.0, 1.0),
    operator=st.sampled_from(["additive", "multiplicative"]),
    guard=st.sampled_from([1.5, 3.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_response_track_matches_scalar_reference(
    mu, rho, x0, y0, amplitude, operator, guard, seed
):
    params = LogisticParams(mu)
    gains = ControllerGains(rho=rho, params=params)
    op = get_operator(operator)
    info = (np.random.default_rng(seed).random(STEPS) < 0.5) * amplitude

    x, escape = _accel.logistic_orbit(mu, 1.0, x0, STEPS)
    z = op.forward(x[:-1], info)
    ys, us, diverge = _accel.response_track(mu, 1.0, rho, y0, z, guard)

    ref_x, ref_z, ref_y, ref_u = [x0], [], [y0], []
    for i in info.tolist():
        d = op.forward(ref_x[-1], i)
        y = ref_y[-1]
        ref_z.append(d)
        ref_u.append(control(gains, y - d, d))
        ref_y.append(step_response(gains, y, d))
        ref_x.append(step(params, ref_x[-1]))
    over = [n for n, y in enumerate(ref_y) if n > 0 and abs(y) > guard]
    stop = over[0] if over else STEPS

    assert escape == -1
    assert x.tolist() == ref_x
    assert z.tolist() == ref_z
    assert diverge == (over[0] if over else -1)
    assert ys[:stop + 1].tolist() == ref_y[:stop + 1]
    assert us[:stop].tolist() == ref_u[:stop]
