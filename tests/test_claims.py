"""The claims ledger: each test measures one claim of the paper's abstract.

Each docstring quotes the abstract's phrase; each test asserts the verdict
measured today, so a change that flips a verdict fails here first.  The
README's claims table lists these rows.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from chaoslink.core import LogisticParams, step
from chaoslink.fixedpoint import fx_run_sync
from chaoslink.simkit import (
    ScenarioConfig,
    run_hop_session,
    run_sync_session,
    run_transmit_session,
)

# the README's digital config
DIGITAL_CFG = ScenarioConfig(mode="fixed", k=1024, x0=122, y0=-1024, steps=16000,
                             source="bernoulli", seed=3)

# the hop config of the CLI tests and the determinism smoke
HOP_CFG = ScenarioConfig(source="bernoulli", seed=5, sessions=20, active_steps=40)


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


def sent_bits(trace, metrics, width):
    """The information on each active row, session after session; a
    session's active rows are the width rows from its hop on."""
    rows = np.concatenate([h.step + np.arange(width) for h in metrics.hops])
    return trace.column("i")[rows[rows < len(trace) - 1]]


@pytest.mark.parametrize("receiver,first_hops", [
    ({"rho": 0.9}, [138, 351, 558]),
    ({"y0": 0.5}, [24, 93, 154]),
], ids=["rho-0.9", "y0-0.5"])
def test_channels_are_selected_through_a_return_channel(receiver, first_hops):
    """"the broadband spectrum can be used to randomly select RF channels",
    each end from its own states -- holds only through a return channel:
    both ends select the same channel at every hop, but the transmitter
    starts each active phase on the receiver's trigger, so a change to the
    receiver's key or start alone moves the transmitter's hops and line."""
    base_trace, base = run_hop_session(HOP_CFG)
    trace, metrics = run_hop_session(replace(HOP_CFG, **receiver))
    base_hops, hops = [h.step for h in base.hops], [h.step for h in metrics.hops]
    assert base_hops[:3] == [26, 95, 156] and hops[:3] == first_hops
    assert len(base_hops) == len(hops) == 20
    assert base.channel_error_count == metrics.channel_error_count == 0
    # the transmitter's own inputs are unchanged: its drive and its bits
    rows = min(len(trace), len(base_trace))
    assert np.array_equal(trace.column("x")[:rows], base_trace.column("x")[:rows])
    width = HOP_CFG.active_steps
    assert np.array_equal(sent_bits(trace, metrics, width), sent_bits(base_trace, base, width))
    # yet its schedule and its line are not
    assert not np.array_equal(trace.column("z")[:rows], base_trace.column("z")[:rows],
                              equal_nan=True)
