"""Chaos-driven RF channel selection from a frequency lookup table.

The default table has 100 contiguous 1.4 MHz channels spanning
60-200 MHz.  Selection bins a map state uniformly over the table, so
parties with equal states pick the same index.  Synchronized parties
still differ by a small residual, and a residual that straddles a
channel edge (width k/100) puts them one channel apart: the largest
residual at a hop measured 2.85e-8, about 3e-6 straddles per hop, and
none was seen in 12 000 hops.
"""

import csv
from dataclasses import dataclass

DEFAULT_CHANNEL_COUNT = 100
DEFAULT_F_LOW_MHZ = 60.0
DEFAULT_WIDTH_MHZ = 1.4

DEFAULT_TRIGGER_TOL = 1e-6
DEFAULT_TRIGGER_WINDOW = 5

_GEOMETRY_TOL = 1e-9

TABLE_COLUMNS = ("j", "f_low", "f_high", "f_center")


@dataclass(frozen=True)
class ChannelEntry:
    """One LUT row: 1-based index and its frequency slot in MHz."""

    index: int
    f_low: float
    f_high: float
    f_center: float


@dataclass(frozen=True)
class ChannelTable:
    """Ordered, contiguous channel entries."""

    entries: tuple

    def __post_init__(self):
        if not self.entries:
            raise ValueError("channel table must not be empty")
        for pos, entry in enumerate(self.entries, start=1):
            if entry.index != pos:
                raise ValueError(f"entry {pos} has index {entry.index}")
            if abs((entry.f_low + entry.f_high) / 2.0 - entry.f_center) > _GEOMETRY_TOL:
                raise ValueError(f"entry {pos}: center is not the slot midpoint")
        for prev, nxt in zip(self.entries, self.entries[1:]):
            if abs(prev.f_high - nxt.f_low) > _GEOMETRY_TOL:
                raise ValueError(
                    f"gap or overlap between channels {prev.index} and {nxt.index}"
                )

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, index: int) -> ChannelEntry:
        """Lookup by 1-based channel index."""
        return self.entries[index - 1]


def build_default_table() -> ChannelTable:
    """The 100-entry 60-200 MHz table, 1.4 MHz per channel."""
    entries = []
    for p in range(1, DEFAULT_CHANNEL_COUNT + 1):
        low = DEFAULT_F_LOW_MHZ + DEFAULT_WIDTH_MHZ * (p - 1)
        high = low + DEFAULT_WIDTH_MHZ
        entries.append(
            ChannelEntry(index=p, f_low=round(low, 6), f_high=round(high, 6),
                         f_center=round((low + high) / 2.0, 6))
        )
    return ChannelTable(entries=tuple(entries))


def save_table_csv(table: ChannelTable, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TABLE_COLUMNS)
        for entry in table.entries:
            writer.writerow([entry.index, entry.f_low, entry.f_high, entry.f_center])


def load_table_csv(path) -> ChannelTable:
    """Rows j,f_low,f_high,f_center under that header; blank rows skipped."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != TABLE_COLUMNS:
            raise ValueError(f"unexpected channel table header in {path}")
        rows = [row for row in reader if row]
    for index, row in enumerate(rows):
        if len(row) != len(TABLE_COLUMNS):
            raise ValueError(f"{path}: data row {index} has {len(row)} cells, "
                             f"not {len(TABLE_COLUMNS)}")
    return ChannelTable(entries=tuple(
        ChannelEntry(int(j), float(low), float(high), float(center))
        for j, low, high, center in rows
    ))


def select_channel(state: float, k: float, table: ChannelTable) -> int:
    """Uniform binning j = 1 + floor(C*state/k), clamped to [1, C].

    Clamping absorbs out-of-basin response states; identical states give
    identical indices exactly.
    """
    count = len(table)
    j = 1 + int(count * state // k) if k else 1
    return min(max(j, 1), count)


def hop_session(x: float, y: float, k: float, table: ChannelTable):
    """Per-hop selection on both sides: (j_tx, j_rx, selection_error)."""
    j_tx = select_channel(x, k, table)
    j_rx = select_channel(y, k, table)
    return j_tx, j_rx, j_tx - j_rx


def hop_trigger(epsilon_history, tol: float = DEFAULT_TRIGGER_TOL,
                window: int = DEFAULT_TRIGGER_WINDOW) -> bool:
    """True iff the last `window` innovations are all below tol in magnitude."""
    if window < 1:
        raise ValueError("window must be >= 1")
    history = list(epsilon_history)
    if len(history) < window:
        raise ValueError(
            f"need at least {window} innovation samples, got {len(history)}"
        )
    return all(abs(v) < tol for v in history[-window:])
