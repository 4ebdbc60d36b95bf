"""One workload process: import, warm up, then time or trace ops.

Started by run.py, never by hand.  It prints ``ready`` once chaoslink and
numpy are imported and one warm-up op has run (run.py times set-up up to
that line), then the host's speed as ``reference <seconds>``, then, unless
``--mode setup``, one JSON line with the results.  Ops run one after
another in this single thread: a closed loop with one client.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time


def _load(root: str):
    """Import chaoslink from the checkout's sources, never an installed copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import numpy
    import chaoslink

    if not os.path.abspath(chaoslink.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"chaoslink imported from {chaoslink.__file__}, not {src}")
    return {
        "using_numba": bool(chaoslink.USING_NUMBA),
        "chaoslink": getattr(chaoslink, "__version__", "unknown"),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


REFERENCE_STEPS = 100_000


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop that runs no chaoslink code.

    Timed next to every op, it measures how fast the host is running at that
    moment, so that run.py can take out the host's drift."""
    start = time.perf_counter()
    x, out = 0.3, []
    for _ in range(REFERENCE_STEPS):
        x = 3.7 * x * (1.0 - x)
        out.append(x)
    return time.perf_counter() - start


def _record(out, elapsed, outcome, reference=None) -> None:
    out["ops"].append([elapsed, outcome.rows, not outcome.problems, reference])
    out["problems"] += outcome.problems[:3]
    for key, value in outcome.observed.items():
        out["observed"][key] = out["observed"].get(key, 0) + value


def _timed(workloads, args, workdir) -> dict:
    cycle = workloads.WORKLOADS[args.workload]["cycle"]
    out = {"ops": [], "digests": [], "problems": [], "observed": {}}
    deadline = time.perf_counter() + args.seconds
    index = 0
    while index < cycle or time.perf_counter() < deadline:
        op = workloads.make_op(args.workload, args.seed, index, workdir)
        reference = reference_loop()
        elapsed, outcome = workloads.run_op(op)
        _record(out, elapsed, outcome, reference)
        if index < cycle:
            out["digests"].append(outcome.digest)
        index += 1
    return out


def _traced(workloads, args, workdir) -> dict:
    """Each op of the fixed cycle runs untraced, then traced, round after
    round; per-layer figures are per traced op over whole rounds."""
    import spans

    cycle = workloads.WORKLOADS[args.workload]["cycle"]
    rec = spans.Recorder()
    hooks = spans.Hooks(rec)
    out = {"ops": [], "digests": [], "problems": [], "observed": {}}
    plain_s = traced_s = 0.0
    rounds = 0
    deadline = time.perf_counter() + args.seconds
    while rounds == 0 or time.perf_counter() < deadline:
        for index in range(cycle):
            for traced in (False, True):
                op = workloads.make_op(args.workload, args.seed, index, workdir)
                rec.op_id = rounds * cycle + index
                reference = reference_loop()
                elapsed, outcome = workloads.run_op(op, hooks if traced else None)
                _record(out, elapsed, outcome, reference)
                if traced:
                    traced_s += elapsed
                else:
                    plain_s += elapsed
                if rounds == 0 and traced:
                    out["digests"].append(outcome.digest)
        rounds += 1
    layers = spans.layer_metrics(rec, rounds * cycle)
    layers["trace_overhead_frac"] = traced_s / plain_s - 1.0
    out["layers"] = layers
    out["rounds"] = rounds
    out["spans"] = len(rec.start)
    spans_path = os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.npz")
    rec.save(spans_path)
    out["spans_file"] = os.path.relpath(spans_path, args.root)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    env = _load(args.root)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(args.out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        warm = workloads.make_op(args.workload, args.seed, 0, workdir)
        warm.prepare()
        try:
            warm.body()
        finally:
            warm.close()
        print("ready", flush=True)
        speed = sorted(reference_loop() for _ in range(5))[2]
        print(f"reference {speed!r}", flush=True)
        if args.mode == "setup":
            return 0
        out = (_traced if args.mode == "trace" else _timed)(workloads, args, workdir)
    finally:
        os.rmdir(workdir)
    out["env"] = env
    out["op_digests"] = out.pop("digests")
    out["digest"] = workloads.run_digest(out["op_digests"])
    out.update(workloads.WORKLOADS[args.workload])
    out["input_size"] = workloads.INPUT_SIZE[args.workload]
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
