"""The committed benchmark records BENCH_*.json at the repository root.

Each holds one unchanged `perfbench/run.py --workload W ... --trace 0` run
per workload of BENCHMARK.json, under "workloads", and the name of the
checkout directory it ran in, under "checkout": the heap layout, and so
the digital timings and every peak_rss_mb, shift with that name's length.
Also the package's side of the benchmark: every module and name that the
frozen perfbench/ reads from chaoslink still exists.
"""

import ast
import importlib
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


def test_the_benchmark_finds_every_module_and_name_it_reads():
    # perfbench/spans.py imports each module of its LAYERS on every traced
    # run, and perfbench/worker.py reads USING_NUMBA and __version__: the
    # benchmark is frozen, so a module or name it reads must not go before
    # it stops reading it.  LAYERS is read with ast, not by importing
    # perfbench.
    spans = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    [layers] = [node.value for node in spans.body if isinstance(node, ast.Assign)
                and [ast.unparse(target) for target in node.targets] == ["LAYERS"]]
    modules = ast.literal_eval(layers)
    assert modules
    for name in modules.values():
        importlib.import_module(name)
    package = importlib.import_module("chaoslink")
    assert isinstance(package.USING_NUMBA, bool)
    assert isinstance(package.__version__, str)
