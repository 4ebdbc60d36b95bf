"""The four workloads: seeded op inputs, op bodies, output checks, digests.

Every op is drawn from (seed, op index) alone, so a run's inputs depend only
on its seed.  An op has three parts: ``prepare`` makes its inputs (untimed),
``body`` is the timed call into chaoslink, and ``finish`` checks the outputs
and digests them (untimed).  Calls go through module attributes looked up at
call time, so the span hooks in ``spans.py`` see them.
"""

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

import chaoslink.cli as cli
import chaoslink.simkit as simkit

ANALOG_STEPS = 20_000
DIGITAL_STEPS = 16_000
HOP_SESSIONS = 300
HOP_ACTIVE_STEPS = 40
CLI_STEPS = {"sync": 5_000, "transmit": 5_000, "digital": 2_000}
CLI_HOP_SESSIONS = 20
DIGITAL_MAX_SYNC_STEP = 64

# Per workload: ops whose digests form the run's digest (and the traced
# cycle), and the fixed percentile reported as op_tail_s.
WORKLOADS = {
    "analog": {"cycle": 6, "tail_pct": 85},
    "digital": {"cycle": 4, "tail_pct": 75},
    "hop": {"cycle": 3, "tail_pct": 75},
    "cli": {"cycle": 2, "tail_pct": 66},
}

INPUT_SIZE = {
    "analog": f"{ANALOG_STEPS} steps per session, one session per op "
              "(sync, additive transmit, multiplicative transmit in turn)",
    "digital": f"{DIGITAL_STEPS} steps per session, frame 16/4, k=1024",
    "hop": f"{HOP_SESSIONS} hop sessions per op, {HOP_ACTIVE_STEPS} active steps each",
    "cli": "one job per op: sync {sync}, transmit {transmit}, digital {digital} steps "
           "and hop {hop} sessions, each written to CSV and read back".format(
               hop=CLI_HOP_SESSIONS, **CLI_STEPS),
}


@dataclass
class Outcome:
    rows: int
    digest: str
    problems: list
    observed: dict = field(default_factory=dict)  # reported, not gated


def _rng(seed: int, index: int):
    return np.random.default_rng([seed, index])


def _x0(rng) -> float:
    return float(rng.uniform(0.05, 0.95))


def _source_seed(rng) -> int:
    return int(rng.integers(0, 2**31))


def _column(trace, name) -> np.ndarray:
    """A trace column as float64, NaN where the field is absent."""
    col = np.asarray(trace.column(name), dtype=object)
    return np.where(np.equal(col, None), np.nan, col).astype(np.float64)


def _metrics_fields(metrics) -> dict:
    def show(v):
        return float(v).hex() if isinstance(v, (float, np.floating)) else v

    fields = ("sync_step", "max_abs_error", "ber", "channel_error_count",
              "bits_total", "bit_errors", "saturations")
    out = {name: show(getattr(metrics, name, None)) for name in fields}
    out["hops"] = [[h.session, h.step, h.j_tx, h.j_rx, h.error]
                   for h in getattr(metrics, "hops", ())]
    return out


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(part.tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def _trace_digest(trace, metrics=None) -> str:
    columns = [_column(trace, name) for name in simkit.TRACE_COLUMNS]
    meta = [len(trace)] + ([_metrics_fields(metrics)] if metrics is not None else [])
    return _digest(list(simkit.TRACE_COLUMNS), meta, *columns)


class SessionOp:
    """One in-process session call."""

    def __init__(self, runner: str, cfg, checks, rows=None):
        self.runner, self.cfg, self.checks = runner, cfg, checks
        self.rows = cfg.steps + 1 if rows is None else rows

    def prepare(self) -> None:
        pass

    def body(self):
        return getattr(simkit, self.runner)(self.cfg)

    def finish(self, result) -> Outcome:
        trace, metrics = result
        problems = [msg for ok, msg in self.checks(trace, metrics) if not ok]
        if self.rows and len(trace) != self.rows:
            problems.append(f"trace has {len(trace)} rows, expected {self.rows}")
        observed = {}
        if metrics.channel_error_count is not None:
            observed = {"hops": len(metrics.hops),
                        "hop_channel_mismatches": metrics.channel_error_count}
        return Outcome(len(trace), _trace_digest(trace, metrics), problems, observed)

    def close(self) -> None:
        pass


def analog_op(seed: int, index: int) -> SessionOp:
    rng = _rng(seed, index)
    x0, source_seed = _x0(rng), _source_seed(rng)
    kind = index % 3
    if kind == 0:
        cfg = simkit.ScenarioConfig(steps=ANALOG_STEPS, x0=x0,
                                    y0=float(rng.uniform(-1.0, 2.0)),
                                    rho=float(rng.uniform(-0.9, 0.9)))
        return SessionOp("run_sync_session", cfg, lambda t, m: [
            (m.sync_step is not None, "sync: never synchronized")])
    if kind == 1:
        # The paper's setting: rho = 0.5, y0 = -1, threshold 5.0.
        cfg = simkit.ScenarioConfig(steps=ANALOG_STEPS, x0=x0, rho=0.5, y0=-1.0,
                                    threshold=5.0, source="bernoulli",
                                    seed=source_seed)
        return SessionOp("run_transmit_session", cfg, lambda t, m: [
            (m.ber == 0, f"additive transmit: BER {m.ber} != 0")])
    # Multiplicative BER is a known open finding, so it is not gated.
    cfg = simkit.ScenarioConfig(steps=ANALOG_STEPS, x0=x0, operator="multiplicative",
                                amplitude=0.2, source="bernoulli", seed=source_seed)
    return SessionOp("run_transmit_session", cfg, lambda t, m: [])


def digital_op(seed: int, index: int) -> SessionOp:
    rng = _rng(seed, index)
    cfg = simkit.ScenarioConfig(mode="fixed", k=1024, x0=122,
                                y0=int(rng.integers(-1024, 1024)),
                                steps=DIGITAL_STEPS, frame_m=16, frame_n=4,
                                source="bernoulli", seed=_source_seed(rng))
    return SessionOp("run_digital_session", cfg, lambda t, m: [
        (m.sync_step is not None and m.sync_step <= DIGITAL_MAX_SYNC_STEP,
         f"digital: sync_step {m.sync_step} > {DIGITAL_MAX_SYNC_STEP}"),
        (m.ber == 0, f"digital: BER {m.ber} != 0"),
    ])


def _channel(state: float, k: float) -> int:
    """The paper's binning 1 + floor(100 * state / k), clamped to [1, 100]."""
    return min(max(1 + int(100 * state // k), 1), 100)


def _hop_checks(trace, metrics, k: float) -> list:
    """Every session hops once, each side's channel is the binning of its own
    state at the hop step, and the two differ only where a channel edge lies
    between x and y while they are closer than the sync tolerance.  Such
    straddles are counted, not failed: selection on each side's own state is
    how the simulator measures residual desync."""
    checks = [(len(metrics.hops) == HOP_SESSIONS,
               f"hop: {len(metrics.hops)} hops != {HOP_SESSIONS}"),
              (metrics.channel_error_count == sum(1 for h in metrics.hops if h.error),
               f"hop: channel_error_count {metrics.channel_error_count} does not "
               "count the mismatched hops")]
    ns, xs, ys = trace.column("n"), trace.column("x"), trace.column("y")
    for h in metrics.hops:
        x, y = float(xs[h.step]), float(ys[h.step])
        where = f"hop: session {h.session} at step {h.step} (x = {x!r}, y = {y!r})"
        checks += [
            (ns[h.step] == h.step, f"{where}: trace row {h.step} has n = {ns[h.step]}"),
            (h.j_tx == _channel(x, k), f"{where}: j_tx {h.j_tx} != {_channel(x, k)}"),
            (h.j_rx == _channel(y, k), f"{where}: j_rx {h.j_rx} != {_channel(y, k)}"),
            (h.error == h.j_tx - h.j_rx, f"{where}: error {h.error} != j_tx - j_rx"),
        ]
        if h.error:
            checks.append((abs(y - x) < simkit.DEFAULT_SYNC_TOL,
                           f"{where}: channels differ with |y - x| = {abs(y - x):.3g}"))
    return checks


def hop_op(seed: int, index: int) -> SessionOp:
    rng = _rng(seed, index)
    cfg = simkit.ScenarioConfig(x0=_x0(rng), sessions=HOP_SESSIONS,
                                active_steps=HOP_ACTIVE_STEPS,
                                source="bernoulli", seed=_source_seed(rng))
    # A hop trace's length depends on how long each idle phase lasts.
    return SessionOp("run_hop_session", cfg,
                     lambda t, m: _hop_checks(t, m, cfg.k), rows=0)


class CliOp:
    """One job: every session command through chaoslink.cli.main, each
    trace written to CSV and read back with load_trace_csv."""

    def __init__(self, seed: int, index: int, workdir):
        rng = _rng(seed, index)
        self.dir = os.path.join(workdir, f"op{index}")
        sync = (f"steps = {CLI_STEPS['sync']}\nx0 = {_x0(rng)!r}\n"
                f"y0 = {float(rng.uniform(-1.0, 2.0))!r}\n"
                f"rho = {float(rng.uniform(-0.9, 0.9))!r}\n")
        transmit = (f"steps = {CLI_STEPS['transmit']}\nx0 = {_x0(rng)!r}\n"
                    f"threshold = 5.0\nsource = bernoulli\nseed = {_source_seed(rng)}\n")
        digital = (f"mode = fixed\nk = 1024\nx0 = 122\n"
                   f"y0 = {int(rng.integers(-1024, 1024))}\n"
                   f"steps = {CLI_STEPS['digital']}\nsource = bernoulli\n"
                   f"seed = {_source_seed(rng)}\n")
        hop = (f"x0 = {_x0(rng)!r}\nsessions = {CLI_HOP_SESSIONS}\n"
               f"source = bernoulli\nseed = {_source_seed(rng)}\n")
        self.configs = {"sync": sync, "transmit": transmit, "digital": digital, "hop": hop}

    def _path(self, name) -> str:
        return os.path.join(self.dir, name)

    def prepare(self) -> None:
        os.makedirs(self.dir, exist_ok=True)
        for command, text in self.configs.items():
            with open(self._path(f"{command}.cfg"), "w") as fh:
                fh.write(text)

    def body(self):
        out = {}
        for command in self.configs:
            argv = [command, "--config", self._path(f"{command}.cfg"),
                    "--out", self._path(f"{command}.csv")]
            if command == "hop":
                argv += ["--hops-out", self._path("hops.csv")]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            trace = simkit.load_trace_csv(self._path(f"{command}.csv")) if code == 0 else None
            out[command] = (code, stdout.getvalue(), trace)
        return out

    def finish(self, result) -> Outcome:
        """The read-back trace must equal the in-memory trace of the same config."""
        problems, rows, parts = [], 0, []
        for command, (code, text, trace) in result.items():
            parts += [command, code, text]
            if code != 0:
                problems.append(f"cli {command}: exit code {code}")
                continue
            rows += len(trace)
            runner = getattr(simkit, f"run_{command}_session")
            expected, _ = runner(simkit.parse_config_text(self.configs[command]))
            if len(expected) != len(trace) or not all(
                    np.array_equal(_column(trace, name), _column(expected, name),
                                   equal_nan=True)
                    for name in simkit.TRACE_COLUMNS):
                problems.append(f"cli {command}: read-back trace differs from in-memory")
            parts.append(_trace_digest(trace))
        return Outcome(rows, _digest(*parts), problems)

    def close(self) -> None:
        if os.path.isdir(self.dir):
            for name in os.listdir(self.dir):
                os.remove(self._path(name))
            os.rmdir(self.dir)


def run_op(op, hooks=None):
    """Time op.body(), traced if hooks are given; check and digest outside
    the clock.  Returns (seconds, outcome)."""
    op.prepare()
    elapsed = 0.0
    try:
        if hooks is not None:
            hooks.install()
        start = time.perf_counter()
        try:
            result = op.body()
        finally:
            elapsed = time.perf_counter() - start
            if hooks is not None:
                hooks.uninstall()
        return elapsed, op.finish(result)
    except Exception as exc:  # a failed op is counted, not fatal
        return elapsed, Outcome(0, None, [f"raised {type(exc).__name__}: {exc}"])
    finally:
        op.close()


def make_op(workload: str, seed: int, index: int, workdir):
    if workload == "cli":
        return CliOp(seed, index, workdir)
    return {"analog": analog_op, "digital": digital_op, "hop": hop_op}[workload](seed, index)


def run_digest(op_digests) -> str:
    """One digest for a run's fixed first ops."""
    return _digest(list(op_digests))
