"""End-to-end session orchestration, metrics, and CSV trace export.

Four session types mirror the library's experiments: pure
synchronization, analog masked transmission, the digital fixed-point
bitstream path, and synchronization-gated channel hopping.  Every
session is deterministic in (config, seed).
"""

import csv
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import _accel
from .bitcodec import FrameSpec, correlate, decide, lsb_bits, mask_bits, spread
from .core import BasinEscapeError, LogisticParams, step
from .fixedpoint import FixedParams, fx_run_sync
from .hopper import ChannelTable, build_default_table, hop_session, hop_trigger
from .masking import (
    DEFAULT_HOLD,
    DEFAULT_OPERATOR,
    DEFAULT_SETTLE,
    get_operator,
    threshold_detect,
)

TRACE_COLUMNS = ("n", "x", "y", "z", "e", "epsilon", "u", "i", "i_hat", "bit", "channel")

SOURCE_OFF = "off"
SOURCE_BERNOULLI = "bernoulli"
SOURCE_PATTERN = "pattern"

CHANNEL_IDEAL = "ideal"
CHANNEL_DISTURBANCE = "disturbance"

DEFAULT_SYNC_TOL = 1e-6
DEFAULT_SYNC_WINDOW = 5
DEFAULT_GUARD_FACTOR = 1e3


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


class DivergenceError(RuntimeError):
    """Response state exceeded the configured guard bound."""


@dataclass(frozen=True)
class ScenarioConfig:
    """All experiment knobs for one session."""

    mu: float = 3.7
    k: float = 1.0
    rho: float = 0.5
    x0: float = 0.1
    y0: float = -1.0
    steps: int = 50
    sample_time: float = 2.5e-4  # pacing/plot metadata only
    operator: str = DEFAULT_OPERATOR
    amplitude: float = 1.0
    hold: int = DEFAULT_HOLD
    settle: int = DEFAULT_SETTLE
    threshold: float | None = None  # None -> amplitude / 2
    source: str = SOURCE_OFF
    source_p: float = 0.5
    seed: int | None = None
    pattern: str = ""
    mode: str = "float"
    frame_m: int = 16
    frame_n: int = 4
    frac_bits: int = 12
    channel: str = CHANNEL_IDEAL
    disturbance: float = 0.0
    sessions: int = 20
    active_steps: int = 40
    sync_tol: float = DEFAULT_SYNC_TOL
    sync_window: int = DEFAULT_SYNC_WINDOW
    guard: float = DEFAULT_GUARD_FACTOR

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if not 0.0 < float(self.x0) < float(self.k):
            raise ConfigError(f"x0 must lie in (0, {float(self.k)})")
        if self.settle >= self.steps:
            raise ConfigError("settle must be smaller than steps")
        if self.source not in (SOURCE_OFF, SOURCE_BERNOULLI, SOURCE_PATTERN):
            raise ConfigError(f"unknown source {self.source!r}")
        if self.channel not in (CHANNEL_IDEAL, CHANNEL_DISTURBANCE):
            raise ConfigError(f"unknown channel model {self.channel!r}")
        if self.mode not in ("float", "fixed"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.source == SOURCE_BERNOULLI and self.seed is None:
            raise ConfigError("bernoulli source requires an explicit seed")
        if self.source == SOURCE_PATTERN and not set(self.pattern) <= {"0", "1"}:
            raise ConfigError("pattern must be a nonempty string over {0,1}")
        if self.source == SOURCE_PATTERN and not self.pattern:
            raise ConfigError("pattern must be a nonempty string over {0,1}")

    @property
    def detect_threshold(self) -> float:
        return self.amplitude / 2.0 if self.threshold is None else self.threshold

    @property
    def frame(self) -> FrameSpec:
        return FrameSpec(m=self.frame_m, n=self.frame_n)

    @property
    def logistic(self) -> LogisticParams:
        return LogisticParams(mu=self.mu, k=self.k)

    @property
    def fixed_params(self) -> FixedParams:
        if int(self.k) != self.k:
            raise ConfigError("fixed mode requires an integer scale factor")
        return FixedParams.from_real(self.mu, self.rho, k=int(self.k),
                                     frac_bits=self.frac_bits)


_FIELD_PARSERS = {
    "mu": float, "k": float, "rho": float, "x0": float, "y0": float,
    "steps": int, "sample_time": float, "operator": str, "amplitude": float,
    "hold": int, "settle": int, "threshold": float, "source": str,
    "source_p": float, "seed": int, "pattern": str, "mode": str,
    "frame_m": int, "frame_n": int, "frac_bits": int, "channel": str,
    "disturbance": float, "sessions": int, "active_steps": int,
    "sync_tol": float, "sync_window": int, "guard": float,
}


def parse_config_text(text: str) -> ScenarioConfig:
    """Flat key=value scenario file; '#' comments; unknown keys are errors."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _FIELD_PARSERS[key](value)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}") from None
    return ScenarioConfig(**values)


def load_config(path) -> ScenarioConfig:
    with open(path) as fh:
        return parse_config_text(fh.read())


@dataclass
class SessionTrace:
    """Per-step records as parallel columns; None marks an absent field."""

    data: dict

    @classmethod
    def empty(cls) -> "SessionTrace":
        return cls(data={name: [] for name in TRACE_COLUMNS})

    def extend(self, rows: int, **columns) -> None:
        """Append `rows` rows, numbered on from len(self), from whole columns:
        arrays land as Python scalars, a short column is padded with None and
        an absent one is all None."""
        start = len(self)
        columns["n"] = range(start, start + rows)
        for name in TRACE_COLUMNS:
            values = columns.get(name, ())
            values = values.tolist() if isinstance(values, np.ndarray) else list(values)
            self.data[name] += values + [None] * (rows - len(values))

    def __len__(self):
        return len(self.data["n"])

    def column(self, name: str) -> list:
        return self.data[name]

    def array(self, name: str) -> np.ndarray:
        """Column as float array with NaN for absent entries."""
        return np.array(self.data[name], dtype=float)


@dataclass(frozen=True)
class HopRecord:
    session: int
    step: int
    j_tx: int
    j_rx: int
    error: int


@dataclass(frozen=True)
class Metrics:
    """Summary quantities extracted from a session trace."""

    sync_step: int | None
    max_abs_error: float
    ber: float | None = None
    channel_error_count: int | None = None
    bits_total: int | None = None
    bit_errors: int | None = None
    saturations: int | None = None
    hops: tuple = ()

    def summary_lines(self) -> list[str]:
        def show(v):
            return "n/a" if v is None else v

        lines = [
            f"sync_step: {show(self.sync_step)}",
            f"max_abs_error: {self.max_abs_error!r}",
            f"ber: {show(self.ber)}",
        ]
        if self.bits_total is not None:
            lines.append(f"bits_total: {self.bits_total}")
            lines.append(f"bit_errors: {self.bit_errors}")
        if self.channel_error_count is not None:
            lines.append(f"channel_error_count: {self.channel_error_count}")
            lines.append(f"hop_count: {len(self.hops)}")
            lines.append(
                f"distinct_channels: {len({h.j_tx for h in self.hops})}"
            )
        if self.saturations is not None:
            lines.append(f"saturations: {self.saturations}")
        return lines


def _sync_step(errors, tol: float, window: int) -> int | None:
    """First index n such that |e| < tol for the window ending at n."""
    run = 0
    for n, e in enumerate(errors):
        if e is None or math.isnan(e):
            run = 0
            continue
        run = run + 1 if abs(e) < tol else 0
        if run >= window:
            return n
    return None


def _symbol_stream(cfg: ScenarioConfig, n_blocks: int, rng) -> np.ndarray:
    """Source bits for n_blocks hold-windows."""
    if cfg.source == SOURCE_BERNOULLI:
        return (rng.random(n_blocks) < cfg.source_p).astype(np.uint8)
    if cfg.source == SOURCE_PATTERN:
        pattern = np.array([int(c) for c in cfg.pattern], dtype=np.uint8)
        return np.resize(pattern, n_blocks)
    return np.zeros(n_blocks, dtype=np.uint8)


def _block_ends(values: list, block: int) -> list:
    """Column with values[j] on the last row of block j, None elsewhere."""
    column = [None] * (block * len(values))
    column[block - 1::block] = values
    return column


def _track(cfg: ScenarioConfig, op, x0, y0, info, dist=0.0, start: int = 0):
    """Drive orbit from x0, line z = op.forward(x, info) + dist, response
    from y0 driven by z.  Returns (x, y, z, u, i_hat), x and y one sample
    longer than the line.

    Failures are raised as a step-by-step loop meets them: the earliest step
    wins, a drive escape beats a divergence at the same step, and recovery
    near y = 0 fails before its own step's update.  start numbers the first
    step in error messages.
    """
    steps = len(info)
    x, escape = _accel.logistic_orbit(cfg.mu, cfg.k, x0, steps)
    z = op.forward(x[:-1], info) + dist
    guard = cfg.guard * cfg.k
    y, u, diverge = _accel.response_track(cfg.mu, cfg.k, cfg.rho, y0, z, guard)
    stop = min((i for i in (escape, diverge) if i >= 0), default=steps)
    i_hat = op.recover(z[:stop], y[:stop])
    if stop == escape:
        raise BasinEscapeError(start + escape, x[escape])
    if stop == diverge:
        raise DivergenceError(
            f"response exceeded guard {guard} at step {start + diverge}"
        )
    return x, y, z, u, i_hat


def run_sync_session(cfg: ScenarioConfig):
    """Idle synchronization: drive on its orbit, response tracking it."""
    if cfg.source != SOURCE_OFF:
        raise ConfigError("sync session requires source=off")
    cfg.logistic  # validate parameters
    # the bare drive state is the additive line with no information on it
    x, y, _, u, _ = _track(cfg, get_operator("additive"), cfg.x0, cfg.y0,
                           np.zeros(cfg.steps))
    errors = y - x
    trace = SessionTrace.empty()
    trace.extend(cfg.steps + 1, x=x, y=y, e=errors, u=u)
    metrics = Metrics(
        sync_step=_sync_step(trace.column("e"), cfg.sync_tol, cfg.sync_window),
        max_abs_error=float(np.max(np.abs(errors))),
    )
    return trace, metrics


def run_transmit_session(cfg: ScenarioConfig):
    """Analog masked transmission with per-hold-window bit decisions."""
    if cfg.source == SOURCE_OFF:
        raise ConfigError("transmit session requires an information source")
    if cfg.mode != "float":
        raise ConfigError("transmit session runs in float mode")
    if cfg.steps % cfg.hold != 0:
        raise ConfigError("steps must be a multiple of hold")
    cfg.logistic  # validate parameters
    rng = np.random.default_rng(cfg.seed)
    n_blocks = cfg.steps // cfg.hold
    bits = _symbol_stream(cfg, n_blocks, rng)
    info = np.repeat(bits.astype(float) * cfg.amplitude, cfg.hold)
    if cfg.channel == CHANNEL_DISTURBANCE and cfg.disturbance > 0:
        dist = rng.uniform(-cfg.disturbance, cfg.disturbance, cfg.steps)
    else:
        dist = np.zeros(cfg.steps)

    x, y, z, u, ihat = _track(cfg, get_operator(cfg.operator), cfg.x0, cfg.y0,
                              info, dist)
    decisions = threshold_detect(ihat, cfg.hold, cfg.detect_threshold)

    errors = y - x
    trace = SessionTrace.empty()
    trace.extend(
        cfg.steps + 1, x=x, y=y, e=errors, z=z, epsilon=y[:-1] - z, u=u,
        i=info, i_hat=ihat, bit=_block_ends(decisions.tolist(), cfg.hold),
    )

    post = np.arange(n_blocks) * cfg.hold >= cfg.settle
    bit_errors = int(np.count_nonzero(decisions[post] != bits[post]))
    bits_total = int(np.count_nonzero(post))
    metrics = Metrics(
        sync_step=_sync_step(trace.column("e"), cfg.sync_tol, cfg.sync_window),
        max_abs_error=float(np.max(np.abs(errors))),
        ber=bit_errors / bits_total if bits_total else None,
        bits_total=bits_total,
        bit_errors=bit_errors,
    )
    return trace, metrics


def run_digital_session(cfg: ScenarioConfig):
    """Fixed-point bitstream path: spread, XOR-mask, correlate, decide.

    Carrier bits are the least-significant bits of the 16-bit drive
    states; the receiver descrambles with its own response-state bits.
    BER counts frames that start after exact synchronization.
    """
    if cfg.mode != "fixed":
        raise ConfigError("digital session requires mode=fixed")
    spec = cfg.frame
    params = cfg.fixed_params
    if cfg.steps % spec.m != 0:
        raise ConfigError("steps must be a multiple of frame_m")
    x0, y0 = int(cfg.x0), int(cfg.y0)
    run = fx_run_sync(params, x0, y0, cfg.steps)
    rng = np.random.default_rng(cfg.seed)
    n_frames = cfg.steps // spec.m
    info_bits = _symbol_stream(cfg, n_frames * spec.n, rng)

    tx_carrier = lsb_bits(run.x[:-1])
    rx_carrier = lsb_bits(run.y[:-1])

    line = np.zeros(cfg.steps, dtype=np.uint8)
    spread_all = np.zeros(cfg.steps, dtype=np.uint8)
    soft = np.zeros(n_frames * spec.n)
    decided = np.zeros(n_frames * spec.n, dtype=np.uint8)
    for f in range(n_frames):
        lo = f * spec.m
        word = info_bits[f * spec.n:(f + 1) * spec.n]
        tx_bits = spread(word, spec)
        spread_all[lo:lo + spec.m] = tx_bits
        masked = mask_bits(tx_bits, tx_carrier[lo:lo + spec.m])
        line[lo:lo + spec.m] = masked
        unmasked = mask_bits(masked, rx_carrier[lo:lo + spec.m])
        means = correlate(unmasked, spec)
        soft[f * spec.n:(f + 1) * spec.n] = means
        decided[f * spec.n:(f + 1) * spec.n] = decide(means)

    # correlator soft outputs and decisions land on each r-block's last step
    trace = SessionTrace.empty()
    trace.extend(
        cfg.steps + 1, x=run.x.astype(float), y=run.y.astype(float),
        e=(run.y - run.x).astype(float), z=line.astype(float),
        i=spread_all.astype(float), i_hat=_block_ends(soft.tolist(), spec.r),
        bit=_block_ends(decided.tolist(), spec.r),
    )

    sync_at = run.first_equal if run.held else None
    if sync_at is not None:
        frame_start = np.arange(n_frames) * spec.m
        post_frames = frame_start >= sync_at
        post_bits = np.repeat(post_frames, spec.n)
        bit_errors = int(np.count_nonzero(decided[post_bits] != info_bits[post_bits]))
        bits_total = int(np.count_nonzero(post_bits))
    else:
        bit_errors = 0
        bits_total = 0
    errors = run.y - run.x
    metrics = Metrics(
        sync_step=run.first_equal,
        max_abs_error=float(np.max(np.abs(errors))),
        ber=bit_errors / bits_total if bits_total else None,
        bits_total=bits_total,
        bit_errors=bit_errors,
        saturations=run.saturations,
    )
    return trace, metrics


MAX_IDLE_STEPS = 10_000


def run_hop_session(cfg: ScenarioConfig, table: ChannelTable | None = None):
    """Alternating idle/transmit sessions with sync-gated channel hops.

    Each session idles until the trigger (|epsilon| < sync_tol for
    sync_window consecutive samples), hops on the first post-trigger
    drive sample, then transmits for active_steps.  Both sides select on
    their own states, so the selection error measures residual desync.
    """
    if table is None:
        table = build_default_table()
    params = cfg.logistic
    rng = np.random.default_rng(cfg.seed)
    guard = cfg.guard * cfg.k
    op = get_operator(cfg.operator)
    transmit = cfg.source != SOURCE_OFF and cfg.active_steps > 0
    x, y = cfg.x0, cfg.y0
    trace = SessionTrace.empty()
    hops = []
    # The trigger reads only the last sync_window innovations; hop_trigger
    # itself rejects a window below 1.
    recent = deque(maxlen=max(cfg.sync_window, 1))

    for session in range(cfg.sessions):
        # idle phase: line carries the bare drive state
        idle = []
        while True:
            e = y - x
            u = _accel.control_effort(cfg.mu, cfg.k, cfg.rho, e, x)
            idle.append((x, y, e, u))
            recent.append(e)
            x, y = step(params, x), step(params, y) + u
            n = len(trace) + len(idle)
            if not 0.0 < x < cfg.k:
                raise BasinEscapeError(n, x)
            if abs(y) > guard:
                raise DivergenceError(f"response exceeded guard {guard} at step {n}")
            if len(recent) >= cfg.sync_window and hop_trigger(
                recent, cfg.sync_tol, cfg.sync_window
            ):
                break
            if len(idle) > MAX_IDLE_STEPS:
                raise DivergenceError(
                    f"no sync trigger within {MAX_IDLE_STEPS} idle steps"
                )
        xs, ys, es, us = zip(*idle)
        trace.extend(len(idle), x=xs, y=ys, e=es, epsilon=es, u=us, z=xs,
                     i=[0.0] * len(idle))
        # hop on the first post-trigger drive sample
        n = len(trace)
        hops.append(HopRecord(session, n, *hop_session(x, y, cfg.k, table)))
        if transmit:
            # active phase: masked transmission on the new channel
            bits = _symbol_stream(cfg, -(-cfg.active_steps // cfg.hold), rng)
            info = np.repeat(bits.astype(float) * cfg.amplitude, cfg.hold)
            info = info[:cfg.active_steps]
            xs, ys, z, u, ihat = _track(cfg, op, x, y, info, start=n)
            epsilon = ys[:-1] - z
            recent.extend(epsilon.tolist())
            trace.extend(
                cfg.active_steps, x=xs[:-1], y=ys[:-1], e=ys[:-1] - xs[:-1],
                epsilon=epsilon, u=u, z=z, i=info, i_hat=ihat, channel=[hops[-1].j_tx],
            )
        else:
            # one bare step on the new channel, its control not recorded
            trace.extend(1, x=[x], y=[y], e=[y - x], epsilon=[y - x],
                         channel=[hops[-1].j_tx])
            xs, ys, *_ = _track(cfg, get_operator("additive"), x, y,
                                np.zeros(1), start=n)
        x, y = float(xs[-1]), float(ys[-1])
    trace.extend(1, x=[x], y=[y], e=[y - x])

    # The maximum error skips rows without control (bare hop steps and the
    # final row).  A step-by-step loop held it as a numpy scalar once the
    # response had taken a masked line sample; the CLI prints its repr.
    errors, controls = trace.column("e"), trace.column("u")
    peak = max((r for r, u in enumerate(controls) if r == 0 or u is not None),
               key=lambda r: abs(errors[r]))
    max_err = abs(errors[peak])
    if transmit and hops and peak > hops[0].step:
        max_err = np.float64(max_err)
    metrics = Metrics(
        sync_step=_sync_step(errors, cfg.sync_tol, cfg.sync_window),
        max_abs_error=max_err,
        channel_error_count=sum(1 for h in hops if h.error != 0),
        hops=tuple(hops),
    )
    return trace, metrics


def _format_cell(value) -> str:
    if value is None:
        return ""
    v = float(value)
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return format(v, ".17g")


def export_csv(trace: SessionTrace, path) -> None:
    """Fixed column order; absent fields as empty cells; reals round-trip."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for row in zip(*(trace.data[name] for name in TRACE_COLUMNS)):
            writer.writerow([_format_cell(v) for v in row])


def load_trace_csv(path) -> SessionTrace:
    trace = SessionTrace.empty()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != TRACE_COLUMNS:
            raise ValueError(f"unexpected trace header in {path}")
        for row in reader:
            for name in TRACE_COLUMNS:
                trace.data[name].append(float(row[name]) if row[name] != "" else None)
    return trace


def export_hops_csv(hops, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["session", "step", "j_tx", "j_rx", "error"])
        for h in hops:
            writer.writerow([h.session, h.step, h.j_tx, h.j_rx, h.error])
