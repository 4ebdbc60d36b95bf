"""Stepwise reference for the hop session.

The package steps the drive and the response of a hop run together in
one _accel.hop_run generator, which keeps its loop state and yields the
rows in chunks cut between sessions, and builds the masked line, its
recovery and the control column after the loop; this is the per-sample
loop the tests compare it against.  It steps the drive, the response,
the control law (law_oracle.law, not the kernel's), the masking operator
and the trigger window one sample at a time, draws each session's source
bits as its active phase starts, and hands the trace whole columns.
"""

from collections import deque

import numpy as np
from law_oracle import law

from chaoslink import masking
from chaoslink._accel import MAX_IDLE_STEPS
from chaoslink.core import BasinEscapeError, LogisticParams, step
from chaoslink.hopper import build_default_table, hop_session
from chaoslink.simkit import (
    SOURCE_BERNOULLI,
    SOURCE_OFF,
    SOURCE_PATTERN,
    DivergenceError,
    HopRecord,
    Metrics,
    SessionTrace,
)


def _session_info(cfg, rng) -> list:
    """One session's information samples."""
    blocks = -(-cfg.active_steps // cfg.hold)
    if cfg.source == SOURCE_BERNOULLI:
        bits = (rng.random(blocks) < cfg.source_p).astype(np.uint8)
    else:
        assert cfg.source == SOURCE_PATTERN
        bits = np.resize([int(c) for c in cfg.pattern], blocks)
    info = np.repeat(bits.astype(float) * cfg.amplitude, cfg.hold)
    return info[:cfg.active_steps].tolist()


def _first_window(errors, tol, window):
    """First n with |e| < tol for the window ending at n, else None."""
    run = 0
    for n, e in enumerate(errors.tolist()):
        run = run + 1 if abs(e) < tol else 0
        if run >= window:
            return n
    return None


def hop_session_oracle(cfg, table=None):
    """run_hop_session one sample at a time: (trace, metrics), or the
    exception the first failing step raises."""
    if table is None:
        table = build_default_table()
    params = LogisticParams(cfg.mu, cfg.k)
    mu, k, rho = cfg.mu, cfg.k, cfg.rho
    rng = np.random.default_rng(cfg.seed)
    guard = cfg.guard * k
    transmit = cfg.source != SOURCE_OFF and cfg.active_steps > 0
    x, y = cfg.x0, cfg.y0
    xs, ys, us, zs, infos, ihats = [], [], [], [], [], []
    hops = []
    recent = deque(maxlen=cfg.sync_window)

    def advance(u):
        """Step the pair, the response with control u; check the new
        states as the session does."""
        nonlocal x, y
        x, y = step(params, x), step(params, y) + u
        n = len(xs)
        if not 0.0 < x < k:
            raise BasinEscapeError(n, x)
        if not abs(y) <= guard:
            raise DivergenceError(f"response exceeded guard {guard} at step {n}")

    for session in range(cfg.sessions):
        # idle phase: the line carries the bare drive state
        start = len(xs)
        while True:
            e = y - x
            u = law(mu, k, rho, e, x)
            for column, value in zip((xs, ys, us, zs, infos, ihats),
                                     (x, y, u, x, 0.0, np.nan)):
                column.append(value)
            recent.append(e)
            advance(u)
            if len(recent) >= cfg.sync_window and all(
                    abs(v) < cfg.sync_tol for v in recent):
                break
            if len(xs) - start > MAX_IDLE_STEPS:
                raise DivergenceError(
                    f"no sync trigger within {MAX_IDLE_STEPS} idle steps")
        hops.append(HopRecord(session, len(xs), *hop_session(x, y, k, table)))
        if transmit:
            # active phase: masked transmission on the new channel
            for value in _session_info(cfg, rng):
                z = masking.forward(cfg.operator, x, value) + 0.0
                i_hat = masking.recover(cfg.operator, z, y)  # fails before this step's update
                u = law(mu, k, rho, y - z, z)
                for column, cell in zip((xs, ys, us, zs, infos, ihats),
                                        (x, y, u, z, value, i_hat)):
                    column.append(cell)
                recent.append(y - z)
                advance(u)
        else:
            # one bare step on the new channel, its control not recorded
            z = x + 0.0 + 0.0
            u = law(mu, k, rho, y - z, z)
            for column, cell in zip((xs, ys, us, zs, infos, ihats),
                                    (x, y) + (np.nan,) * 4):
                column.append(cell)
            advance(u)

    # the last row, the state the run stopped at, carries no line sample
    for column, cell in zip((xs, ys, us, zs, infos, ihats), (x, y) + (np.nan,) * 4):
        column.append(cell)
    x, y, u, z, i, i_hat = (np.array(column, dtype=float)
                            for column in (xs, ys, us, zs, infos, ihats))
    errors = y - x
    # epsilon is y - z on line samples and e on bare hop rows
    epsilon = np.where(np.isnan(z), errors, y - z)
    epsilon[-1] = np.nan
    channel = np.full(len(x), np.nan)
    channel[[h.step for h in hops]] = [h.j_tx for h in hops]
    trace = SessionTrace(len(x), x=x, y=y, z=z, e=errors, epsilon=epsilon,
                         u=u, i=i, i_hat=i_hat, channel=channel)
    controlled = ~np.isnan(trace.column("u"))
    controlled[0] = True
    metrics = Metrics(
        sync_step=_first_window(errors, cfg.sync_tol, cfg.sync_window),
        max_abs_error=float(np.max(np.abs(errors[controlled]))),
        channel_error_count=sum(1 for h in hops if h.error != 0),
        hops=tuple(hops),
    )
    return trace, metrics
