"""Per-row reference for the trace CSV writer.

export_csv formats a block of rows in one call, over only the columns
with a value in that block; this is the row-at-a-time writer the tests
compare it against.  It formats every cell of every row with %.17g and
then deletes the text "nan", which %.17g writes for NaN and nothing else.
"""

import numpy as np

from chaoslink.simkit import TRACE_COLUMNS


def export_csv_oracle(trace, path) -> None:
    data = np.column_stack([trace.column(name) for name in TRACE_COLUMNS]) + 0.0
    row = ",".join(["%.17g"] * len(TRACE_COLUMNS))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        for values in data.tolist():
            fh.write((row % tuple(values)).replace("nan", "") + "\r\n")
