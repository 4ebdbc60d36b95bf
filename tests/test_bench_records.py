"""The committed benchmark records BENCH_*.json at the repository root.

Each holds one unchanged `perfbench/run.py --workload W ... --trace 0` run
per workload of BENCHMARK.json, under "workloads", and the name of the
checkout directory it ran in, under "checkout": the heap layout, and so
the digital timings and every peak_rss_mb, shift with that name's length.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_holds_a_correct_run_of_every_workload(path):
    record = json.loads(path.read_text())
    assert isinstance(record["checkout"], str) and record["checkout"]
    runs = record["workloads"]
    assert set(runs) == {workload["name"] for workload in BENCHMARK["workloads"]}
    units = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
    for name, run in runs.items():
        assert run["correct"] is True and run["failed"] == 0, name
        assert run["attempted"] > 0, name
        # the backend that ran, as run.py names it
        assert run["backend"] == ("numba" if run["env"]["using_numba"]
                                  else "pure-Python fallback"), name
        metrics = run["metrics"]
        assert {metric: metrics[metric]["unit"] for metric in units} == units, name
        for metric in units:
            value = metrics[metric]["value"]
            assert isinstance(value, (int, float)) and math.isfinite(value) and value > 0
