"""End-to-end session orchestration, metrics, and CSV trace export.

Four session types mirror the library's experiments: pure
synchronization, analog masked transmission, the digital fixed-point
bitstream path, and synchronization-gated channel hopping.  Every
session is deterministic in (config, seed).
"""

import csv
import math
from dataclasses import dataclass, fields
from itertools import chain, islice
from typing import get_args

import numpy as np

from . import _accel
from .bitcodec import FrameSpec, correlate, decide, lsb_bits, mask_bits, spread
from .core import BasinEscapeError, LogisticParams
from .fixedpoint import FixedParams, fx_run_sync
from .hopper import ChannelTable, build_default_table, hop_session, hop_trigger
from .masking import (
    DEFAULT_HOLD,
    DEFAULT_OPERATOR,
    DEFAULT_SETTLE,
    OPERATORS,
    coefficients,
    forward,
    recover,
    threshold_detect,
)

TRACE_COLUMNS = ("n", "x", "y", "z", "e", "epsilon", "u", "i", "i_hat", "bit", "channel")

SOURCE_OFF = "off"
SOURCE_BERNOULLI = "bernoulli"
SOURCE_PATTERN = "pattern"

DEFAULT_SYNC_TOL = 1e-6
DEFAULT_SYNC_WINDOW = 5
DEFAULT_GUARD_FACTOR = 1e3
_CSV_BLOCK = 1024  # trace rows per CSV write or parse call


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
    disturbance: float = 0.0  # > 0: uniform noise in [-d, d] on the transmit line
    sessions: int = 20
    active_steps: int = 40
    sync_tol: float = DEFAULT_SYNC_TOL
    sync_window: int = DEFAULT_SYNC_WINDOW
    guard: float = DEFAULT_GUARD_FACTOR

    def __post_init__(self):
        for name, parse in _FIELD_PARSERS.items():
            value = getattr(self, name)
            if parse is float and value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite")
        if not self.guard > 0:
            raise ConfigError("guard must be > 0")
        if not self.sync_tol > 0:
            raise ConfigError("sync_tol must be > 0")
        if self.disturbance < 0:
            raise ConfigError("disturbance must be >= 0")
        if not 0.0 <= self.source_p <= 1.0:
            raise ConfigError("source_p must lie in [0, 1]")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.hold < 1:
            raise ConfigError("hold must be >= 1")
        if self.sync_window < 1:
            raise ConfigError("sync_window must be >= 1")
        if self.sessions < 0 or self.active_steps < 0:
            raise ConfigError("sessions and active_steps must be >= 0")
        if not 0.0 < float(self.x0) < float(self.k):
            raise ConfigError(f"x0 must lie in (0, {float(self.k)})")
        if self.operator not in OPERATORS:
            raise ConfigError(f"unknown operator {self.operator!r}; "
                              f"registered: {list(OPERATORS)}")
        if self.source not in (SOURCE_OFF, SOURCE_BERNOULLI, SOURCE_PATTERN):
            raise ConfigError(f"unknown source {self.source!r}")
        if self.mode not in ("float", "fixed"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.source == SOURCE_BERNOULLI and self.seed is None:
            raise ConfigError("bernoulli source requires an explicit seed")
        if self.disturbance > 0 and self.seed is None:
            raise ConfigError("disturbance channel requires an explicit seed")
        if self.source == SOURCE_PATTERN and not (
                self.pattern and set(self.pattern) <= {"0", "1"}):
            raise ConfigError("pattern must be a nonempty string over {0,1}")
        # last, so that every other fault keeps its own message
        try:
            LogisticParams(self.mu, self.k)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        # 2d for a basin state d, the law's terms and the response guard stay finite
        scale = max(float(self.mu) + abs(float(self.rho)), 2.0, float(self.guard))
        if not math.isfinite(scale * float(self.k)):
            raise ConfigError(f"scale factor k = {float(self.k)} is too large: "
                              "max(mu + |rho|, 2, guard) * k overflows")

    @property
    def response_guard(self) -> float:
        """The bound on |y| past which a response has diverged."""
        return self.guard * self.k

    @property
    def detect_threshold(self) -> float:
        return self.amplitude / 2.0 if self.threshold is None else self.threshold

    @property
    def frame(self) -> FrameSpec:
        return FrameSpec(m=self.frame_m, n=self.frame_n)

    @property
    def fixed_params(self) -> FixedParams:
        if int(self.k) != self.k:
            raise ConfigError("fixed mode requires an integer scale factor")
        for name in ("x0", "y0"):
            if int(getattr(self, name)) != getattr(self, name):
                raise ConfigError(f"fixed mode requires an integer {name}")
        return FixedParams.from_real(self.mu, self.rho, k=int(self.k),
                                     frac_bits=self.frac_bits)


# Each field's parser is its type, or X of an `X | None` field.
_FIELD_PARSERS = {f.name: (get_args(f.type) or (f.type,))[0]
                  for f in fields(ScenarioConfig)}


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


class SessionTrace:
    """Per-step records as float64 columns; NaN marks an absent field.

    A trace holds its columns, not copies of them: a full-length float64
    array is kept as passed, so the caller and the trace share it, and an
    absent column is a read-only NaN view that takes no memory.  Copy a
    column before writing to it.
    """

    def __init__(self, rows: int, **columns):
        """Trace of `rows` rows from whole columns: n defaults to
        0..rows-1, a short column is padded with NaN and an absent or empty
        one is all NaN.  A list is read as floats."""
        columns.setdefault("n", np.arange(rows, dtype=float))
        self.data = {}
        for name in TRACE_COLUMNS:
            values = columns.get(name, ())
            if not isinstance(values, np.ndarray):
                values = np.asarray(values, dtype=float)
            if values.dtype == np.float64 and values.shape == (rows,):
                self.data[name] = values
            elif values.size == 0:
                self.data[name] = np.broadcast_to(np.nan, rows)
            else:
                self.data[name] = np.full(rows, np.nan)
                self.data[name][:values.size] = values

    def __len__(self):
        return len(self.data["n"])

    def column(self, name: str) -> np.ndarray:
        return self.data[name]


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


def _sync_step(errors: np.ndarray, tol: float, window: int) -> int | None:
    """First index n such that |e| < tol for the window ending at n; an
    absent (NaN) error breaks the run."""
    n = hop_trigger(errors, tol, window)
    return n if n >= 0 else None


def _symbol_stream(cfg: ScenarioConfig, n_blocks: int, rng,
                   sessions: int = 1) -> np.ndarray:
    """Source bits for n_blocks hold-windows in each of `sessions` sessions,
    one session after the other; a pattern restarts in each session."""
    if cfg.source == SOURCE_BERNOULLI:
        return (rng.random(n_blocks * sessions) < cfg.source_p).astype(np.uint8)
    if cfg.source == SOURCE_PATTERN:
        pattern = np.array([int(c) for c in cfg.pattern], dtype=np.uint8)
        return np.tile(np.resize(pattern, n_blocks), sessions)
    return np.zeros(n_blocks * sessions, dtype=np.uint8)


def _bit_errors(decided: np.ndarray, sent: np.ndarray, counted: np.ndarray) -> dict:
    """Metrics fields ber, bits_total and bit_errors over the bits where
    counted holds; ber is None when none does."""
    bit_errors = int(np.count_nonzero(decided[counted] != sent[counted]))
    bits_total = int(np.count_nonzero(counted))
    return {"ber": bit_errors / bits_total if bits_total else None,
            "bits_total": bits_total, "bit_errors": bit_errors}


def _block_ends(values: np.ndarray, block: int, rows: int) -> np.ndarray:
    """Column of `rows` rows with values[j] on the last row of block j, NaN
    elsewhere."""
    column = np.full(rows, np.nan)
    column[block - 1:block * len(values):block] = values
    return column


def _fail_at(stop: int, x, escape: int, diverge: int, guard: float) -> None:
    """Raise the failure a step-by-step loop meets at step `stop`, if any: a
    drive escape beats a divergence.  escape and diverge index the drive x
    (-1: none)."""
    if stop == escape:
        raise BasinEscapeError(escape, x[escape])
    if stop == diverge:
        raise DivergenceError(f"response exceeded guard {guard} at step {diverge}")


@_accel.quiet
def _difference(a, b):
    """a - b, which for states near the top of the float range overflows to
    inf as quietly as the kernels' arithmetic."""
    return a - b


def _track(cfg: ScenarioConfig, operator: str, x, escape: int, y0, info,
           dist=0.0):
    """Line z = forward(operator, x, info) + dist on the drive samples x
    (escape: index of the first one outside the basin, or -1), response
    from y0 driven by z.  Returns (y, z, u, i_hat), y one sample longer
    than the line, like x.

    Failures are raised as a step-by-step loop meets them: the earliest step
    wins, a drive escape beats a divergence at the same step, and recovery
    near y = 0 fails before its own step's update.
    """
    z = forward(operator, x[:-1], info) + dist
    guard = cfg.response_guard
    y, u, diverge = _accel.response_track(cfg.mu, cfg.k, cfg.rho, y0, z, guard)
    stop = min((i for i in (escape, diverge) if i >= 0), default=len(info))
    i_hat = recover(operator, z[:stop], y[:stop])
    _fail_at(stop, x, escape, diverge, guard)
    return y, z, u, i_hat


def run_sync_session(cfg: ScenarioConfig):
    """Idle synchronization: drive on its orbit, response tracking it."""
    if cfg.source != SOURCE_OFF:
        raise ConfigError("sync session requires source=off")
    if cfg.mode != "float":
        raise ConfigError("sync session runs in float mode")
    # the bare drive state is the additive line with no information on it
    x, escape = _accel.logistic_orbit(cfg.mu, cfg.k, cfg.x0, cfg.steps)
    y, _, u, _ = _track(cfg, "additive", x, escape, cfg.y0, np.zeros(cfg.steps))
    errors = y - x
    trace = SessionTrace(cfg.steps + 1, x=x, y=y, e=errors, u=u)
    metrics = Metrics(
        sync_step=_sync_step(errors, cfg.sync_tol, cfg.sync_window),
        max_abs_error=float(np.max(np.abs(errors))),
    )
    return trace, metrics


def run_transmit_session(cfg: ScenarioConfig):
    """Analog masked transmission with per-hold-window bit decisions;
    bits from the first `settle` steps are not counted."""
    if cfg.settle >= cfg.steps:
        raise ConfigError("settle must be smaller than steps")
    if cfg.source == SOURCE_OFF:
        raise ConfigError("transmit session requires an information source")
    if cfg.mode != "float":
        raise ConfigError("transmit session runs in float mode")
    if cfg.steps % cfg.hold != 0:
        raise ConfigError("steps must be a multiple of hold")
    rng = np.random.default_rng(cfg.seed)
    n_blocks = cfg.steps // cfg.hold
    bits = _symbol_stream(cfg, n_blocks, rng)
    info = np.repeat(bits.astype(float) * cfg.amplitude, cfg.hold)
    if cfg.disturbance > 0:
        dist = rng.uniform(-cfg.disturbance, cfg.disturbance, cfg.steps)
    else:
        dist = np.zeros(cfg.steps)

    x, escape = _accel.logistic_orbit(cfg.mu, cfg.k, cfg.x0, cfg.steps)
    y, z, u, ihat = _track(cfg, cfg.operator, x, escape, cfg.y0, info, dist)
    decisions = threshold_detect(ihat, cfg.hold, cfg.detect_threshold)

    errors = y - x
    trace = SessionTrace(
        cfg.steps + 1, x=x, y=y, e=errors, z=z, epsilon=y[:-1] - z, u=u,
        i=info, i_hat=ihat, bit=_block_ends(decisions, cfg.hold, cfg.steps + 1),
    )

    post = np.arange(n_blocks) * cfg.hold >= cfg.settle
    metrics = Metrics(
        sync_step=_sync_step(errors, cfg.sync_tol, cfg.sync_window),
        max_abs_error=float(np.max(np.abs(errors))),
        **_bit_errors(decisions, bits, post),
    )
    return trace, metrics


def run_digital_session(cfg: ScenarioConfig):
    """Fixed-point bitstream path: spread, XOR-mask, correlate, decide.

    Carrier bits are the least-significant bits of the 16-bit drive
    states; the receiver descrambles with its own response-state bits.
    BER counts frames that start after exact synchronization.

    The response couples to the exact 16-bit drive word x, which is never
    put on any line: the digital link assumes a noiseless side channel for
    the drive state.
    """
    if cfg.mode != "fixed":
        raise ConfigError("digital session requires mode=fixed")
    spec = cfg.frame
    params = cfg.fixed_params
    if cfg.steps % spec.m != 0:
        raise ConfigError("steps must be a multiple of frame_m")
    run = fx_run_sync(params, int(cfg.x0), int(cfg.y0), cfg.steps)
    rng = np.random.default_rng(cfg.seed)
    info_bits = _symbol_stream(cfg, cfg.steps // spec.r, rng)

    spread_bits = spread(info_bits, spec)
    line = mask_bits(spread_bits, lsb_bits(run.x[:-1]))
    soft = correlate(mask_bits(line, lsb_bits(run.y[:-1])), spec)
    decided = decide(soft)

    # correlator soft outputs and decisions land on each r-block's last
    # step; 16-bit states, and their differences, are exact in float
    rows = cfg.steps + 1
    x, y = run.x.astype(float), run.y.astype(float)
    errors = y - x
    trace = SessionTrace(
        rows, x=x, y=y, e=errors, z=line, i=spread_bits,
        i_hat=_block_ends(soft, spec.r, rows),
        bit=_block_ends(decided, spec.r, rows),
    )

    # a bit counts when its frame starts at or after sync; no sync, no bits
    sync_at = cfg.steps if run.first_equal is None else run.first_equal
    post_bits = np.arange(info_bits.size) // spec.n * spec.m >= sync_at
    metrics = Metrics(
        sync_step=run.first_equal,
        max_abs_error=float(np.max(np.abs(errors))),
        **_bit_errors(decided, info_bits, post_bits),
        saturations=run.saturations,
    )
    return trace, metrics


MAX_IDLE_STEPS = 10_000
_HOP_CHUNK = 4096  # rows per hop_run chunk


def run_hop_session(cfg: ScenarioConfig, table: ChannelTable | None = None):
    """Alternating idle/transmit sessions with sync-gated channel hops.

    Each session idles until the trigger (|epsilon| < sync_tol for
    sync_window consecutive samples), hops on the first post-trigger
    drive sample, then transmits for active_steps.  Both sides select on
    their own states, so the selection error measures residual desync.

    _accel.hop_run steps the drive and the response together and yields
    their rows _HOP_CHUNK at a time, so the Python floats in flight stay
    bounded: the line is the bare drive state on idle steps and one of two
    masked levels, chosen by the source bit, on active ones; the trigger's
    window reaches back across phases.  The masked line, the information
    and its recovery on the active rows, the control column, the trace
    columns and the hop records are built once, after the loop.
    """
    if cfg.mode != "float":
        raise ConfigError("hop session runs in float mode")
    if cfg.disturbance > 0:
        raise ConfigError("hop session does not simulate a disturbance channel")
    if table is None:
        table = build_default_table()
    guard = cfg.response_guard
    transmit = cfg.source != SOURCE_OFF and cfg.active_steps > 0
    if transmit:
        width = cfg.active_steps
        blocks = -(-width // cfg.hold)
        bits = _symbol_stream(cfg, blocks, np.random.default_rng(cfg.seed),
                              cfg.sessions).reshape(cfg.sessions, blocks)
        # each session's samples hold its bits, hold steps per bit
        bits = bits[:, np.arange(width) // cfg.hold].ravel()
    else:
        # one bare step on the new channel, its control not recorded
        width = 1
        bits = np.zeros(cfg.sessions, dtype=np.uint8)
    # the line level of a 1 bit; a 0 bit's is the drive state itself
    scale, offset = coefficients(cfg.operator, cfg.amplitude)
    x_parts, y_parts, hop_parts, fails = zip(*_accel.hop_run(
        cfg.mu, cfg.k, cfg.rho, cfg.x0, cfg.y0, cfg.sessions, scale, offset, bits, width,
        cfg.sync_window, cfg.sync_tol, guard, transmit, MAX_IDLE_STEPS, _HOP_CHUNK))
    # The last row is the state the run stopped at; on a failure n is the
    # failing step, and the rows before it are the run.
    x, y, fail = np.concatenate(x_parts), np.concatenate(y_parts), fails[-1]
    n = y.size - 1
    hop_steps = np.fromiter(chain.from_iterable(hop_parts), dtype=np.int64)
    active = (hop_steps[:, None] + np.arange(width)).ravel()
    active = active[active < n]
    z, i, i_hat = x[:-1].copy(), np.zeros(n), np.full(n, np.nan)
    if transmit:
        # recovery near y = 0 fails before any later step does
        i[active] = bits[:active.size] * cfg.amplitude
        z[active] = forward(cfg.operator, x[active], i[active]) + 0.0
        i_hat[active] = recover(cfg.operator, z[active], y[active])
    u = _accel.control_column(cfg.mu, cfg.k, cfg.rho, y, z, n)
    if not transmit:
        z[active] = u[active] = i[active] = np.nan
    _fail_at(n, x, n if fail == _accel.ESCAPED else -1,
             n if fail == _accel.DIVERGED else -1, guard)
    if fail == _accel.IDLE_CAPPED:
        raise DivergenceError(f"no sync trigger within {MAX_IDLE_STEPS} idle steps")
    j_tx, j_rx, error = hop_session(x[hop_steps], y[hop_steps], cfg.k, table)
    hops = [HopRecord(*record) for record in zip(
        range(cfg.sessions), hop_steps.tolist(), j_tx.tolist(), j_rx.tolist(),
        error.tolist())]
    errors = _difference(y, x)
    # epsilon is y - z on line samples and e on bare hop rows
    epsilon = np.where(np.isnan(z), errors[:-1], y[:-1] - z)
    channel = np.full(len(x), np.nan)
    channel[hop_steps] = j_tx
    trace = SessionTrace(len(x), x=x, y=y, z=z, e=errors, epsilon=epsilon,
                         u=u, i=i, i_hat=i_hat, channel=channel)
    # The maximum error skips rows without control (bare hop steps and the
    # final row) other than row 0.
    controlled = ~np.isnan(trace.column("u"))
    controlled[0] = True
    metrics = Metrics(
        sync_step=_sync_step(errors, cfg.sync_tol, cfg.sync_window),
        max_abs_error=float(np.max(np.abs(errors[controlled]))),
        channel_error_count=int(np.count_nonzero(error)),
        hops=tuple(hops),
    )
    return trace, metrics


def export_csv(trace: SessionTrace, path) -> None:
    """Fixed column order; absent fields as empty cells; reals round-trip.

    Each value is written in 17 significant digits (integral values
    without a point, -0.0 as 0), _CSV_BLOCK rows at a time: one %.17g
    format call per block, over the columns with a value in that block.
    A column absent from the whole block is an empty cell, never formatted.
    """
    data = np.column_stack([trace.column(name) for name in TRACE_COLUMNS]) + 0.0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        for start in range(0, len(data), _CSV_BLOCK):
            block = data[start:start + _CSV_BLOCK]
            present = ~np.isnan(block).all(axis=0)
            row = ",".join(["%.17g" if p else "" for p in present]) + "\r\n"
            text = (row * len(block)) % tuple(block[:, present].ravel().tolist())
            # %.17g spells NaN, and nothing else, as "nan"
            fh.write(text.replace("nan", ""))


def load_trace_csv(path) -> SessionTrace:
    """Read an export_csv file back; blank lines are skipped.

    Unquoted cells only, each value equal to float() of its cell and an
    empty cell NaN; a cell with "_" or a non-ASCII character is rejected,
    though float() takes "1_000" and fullwidth digits.  _CSV_BLOCK lines at
    a time are split into cells and parsed column by column; a column with
    no value in the block is not parsed at all.
    """
    width = len(TRACE_COLUMNS)
    blocks, first = [np.empty((0, width))], 0
    with open(path) as fh:
        if fh.readline().rstrip("\n") != ",".join(TRACE_COLUMNS):
            raise ValueError(f"unexpected trace header in {path}")
        while text := "".join(islice(fh, _CSV_BLOCK)):
            rows = [line.split(",") for line in text.split("\n") if line]
            for index, row in enumerate(rows, start=first):
                if len(row) != width:
                    raise ValueError(f"{path}: data row {index} has {len(row)} cells, "
                                     f"not {width}")
            if "_" in text or not text.isascii():
                cell = next(c for row in rows for c in row if "_" in c or not c.isascii())
                raise ValueError(f"could not convert string to float: {cell!r}")
            block = np.full((len(rows), width), np.nan)
            for j, cells in enumerate(zip(*rows)):
                if all(cells):
                    block[:, j] = list(map(float, cells))
                elif any(cells):
                    block[:, j] = [float(cell) if cell else math.nan for cell in cells]
            blocks.append(block)
            first += len(rows)
    data = np.concatenate(blocks)
    return SessionTrace(len(data), **dict(zip(TRACE_COLUMNS, data.T)))


def export_hops_csv(hops, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["session", "step", "j_tx", "j_rx", "error"])
        for h in hops:
            writer.writerow([h.session, h.step, h.j_tx, h.j_rx, h.error])
