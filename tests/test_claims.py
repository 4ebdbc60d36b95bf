"""The claims ledger: each test measures one claim of the paper's abstract.

Each docstring quotes the abstract's phrase; each test asserts the verdict
measured today, so a change that flips a verdict fails here first.  The
README's claims table lists these rows.
"""

import itertools

import numpy as np
import pytest

from chaoslink.core import LogisticParams, step
from chaoslink.fixedpoint import fx_run_sync
from chaoslink.simkit import ScenarioConfig, run_sync_session, run_transmit_session

# the README's digital config
DIGITAL_CFG = ScenarioConfig(mode="fixed", k=1024, x0=122, y0=-1024, steps=16000,
                             source="bernoulli", seed=3)


@pytest.mark.parametrize("rho,exact_from", [(0.5, 54), (-0.5, 55), (0.0, 3)])
def test_error_is_stabilized_when_the_source_is_off(rho, exact_from):
    """"it can asymptotically stabilize the error dynamics when the
    information source is off" -- holds: e_n = rho^n * e_0, and then
    exactly 0."""
    trace, _ = run_sync_session(ScenarioConfig(steps=200, rho=rho))
    e = trace.column("e")
    n = np.arange(len(e))
    assert np.max(np.abs(e - rho ** n * e[0])) <= 1e-9
    assert np.all(e[exact_from:] == 0) and e[exact_from - 1] != 0


def line_only_bits(z, hold, params):
    """One bit per hold block of the line z: 1 when a pair of samples
    inside the block leaves the map, |z[n+1] - f(z[n])| > 1e-9 * k."""
    off_map = np.abs(z[1:] - step(params, z[:-1])) > 1e-9 * params.k
    pairs = np.arange(len(z) - 1)
    inside = (pairs + 1) % hold != 0
    bits = np.zeros(len(z) // hold, dtype=bool)
    np.logical_or.at(bits, pairs[inside] // hold, off_map[inside])
    return bits


def test_information_is_retrievable():
    """"the information signal is retrievable by a suitable detection
    mechanism" -- holds for a rule over the line alone, which reads every
    bit; the sessions' own block-mean rule does not."""
    errors, block_mean_bers = 0, []
    for operator, rho, hold, amplitude, seed in itertools.product(
            ("additive", "multiplicative"), (0.5, 0.9, -0.5, 0.99), (2, 8),
            (1.0, 0.05, 1e-4), (1, 2)):
        cfg = ScenarioConfig(operator=operator, rho=rho, hold=hold, amplitude=amplitude,
                             source="bernoulli", seed=seed, steps=2000)
        trace, metrics = run_transmit_session(cfg)
        sent = trace.column("i")[:-1:hold] != 0
        read = line_only_bits(trace.column("z")[:-1], hold, LogisticParams(cfg.mu, cfg.k))
        errors += int(np.count_nonzero(read != sent))
        block_mean_bers.append(metrics.ber)
    assert len(block_mean_bers) == 96
    assert errors == 0
    assert min(block_mean_bers) == 0.0
    assert max(block_mean_bers) == pytest.approx(0.630, abs=1e-3)


def test_digital_carrier_is_periodic():
    """"Its states are non-periodic, broadband, and noise-like in the
    frequency domain" -- fails for the digital carrier, which enters a
    cycle of period 2 after 36 steps."""
    run = fx_run_sync(DIGITAL_CFG.fixed_params, int(DIGITAL_CFG.x0), int(DIGITAL_CFG.y0),
                      DIGITAL_CFG.steps)
    assert (run.transient, run.period) == (36, 2)
    x = run.x
    assert np.array_equal(x[38:], x[36:-2]) and x[36] != x[37]
    assert x[35] not in x[36:38]
