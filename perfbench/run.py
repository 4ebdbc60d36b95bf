#!/usr/bin/env python3
"""chaoslink benchmark: one workload, end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analog --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
describe the run.  The full record, including the backend that ran, goes to
perfbench/out/.  See perfbench/README.md for what each figure means.
"""

import argparse
import importlib.metadata
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROCESSES = 5
RUN_LIMIT_S = 170  # a whole run, workers included, must end within this
# Seconds the worker's reference loop takes at the reference speed.  Timings
# are scaled to that speed; see "Host drift" in README.md.
REFERENCE_S = 0.008
REFERENCE_WINDOW = 3  # ops on each side whose reference times are pooled


def _package_version(name: str) -> str:
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str:
    """HEAD of the checkout; git is not asked to look above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git not available)"
    if done.returncode != 0:
        return "unknown (not a git checkout)"
    return done.stdout.strip()


def _worker(root, out_dir, args, mode, seconds, deadline):
    """Start a worker; return (seconds to its ready line, its reference-loop
    seconds, its JSON or None).

    The worker is killed if it is still running at the deadline."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--mode", mode, "--out-dir", out_dir]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE)
    fd = proc.stdout.fileno()
    out, ready_s = b"", None
    try:
        # Raw reads only, so no line can sit unseen in a buffer.
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise RuntimeError(f"worker ({mode}) did not finish within {RUN_LIMIT_S} s")
            if not select.select([fd], [], [], left)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            out += chunk
            if ready_s is None and b"\n" in out:
                ready_s = time.perf_counter() - start
        proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker ({mode}) did not finish within {RUN_LIMIT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    ready_line, reference, rest = (out.decode().split("\n", 2) + ["", ""])[:3]
    if (ready_line != "ready" or not reference.startswith("reference ")
            or proc.returncode != 0):
        raise RuntimeError(f"worker ({mode}) failed with exit code {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else None
    return ready_s, float(reference.split()[1]), result


def _scaled(times, references):
    """Each time scaled to the reference speed, by the median reference-loop
    time over the ops around it."""
    out = []
    for i, t in enumerate(times):
        near = references[max(0, i - REFERENCE_WINDOW):i + REFERENCE_WINDOW + 1]
        out.append(t * REFERENCE_S / statistics.median(near))
    return out


def _tail(times, pct):
    """Nearest-rank percentile and how many samples lie beyond it."""
    ordered = sorted(times)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _end_to_end(result, setup, lines):
    ops = result["ops"]
    raw = [op[0] for op in ops]
    times = _scaled(raw, [op[3] for op in ops])
    setup_samples = [ready_s * REFERENCE_S / reference for ready_s, reference in setup]
    rows = sum(op[1] for op in ops)
    pct = result["tail_pct"]
    tail, beyond = _tail(times, pct)
    metrics = {
        "steps_per_s": (rows / sum(times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail, "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }
    notes = {
        "steps_per_s": f"{rows} trace rows in {sum(times):.3f} s of op time "
                       f"({sum(raw):.3f} s unscaled); input: {result['input_size']}",
        "op_p50_s": f"median of {len(times)} ops; {statistics.median(raw):.6g} s unscaled",
        "op_tail_s": f"p{pct} of {len(times)} ops, {beyond} samples beyond it"
                     + ("" if beyond >= 10 else " (fewer than 10)")
                     + f"; {_tail(raw, pct)[0]:.6g} s unscaled",
        "setup_s": f"median of {len(setup_samples)} fresh processes: "
                   + ", ".join(f"{s:.3f}" for s in setup_samples)
                   + f"; {statistics.median(s for s, _ in setup):.6g} s unscaled",
        "peak_rss_mb": "peak resident set of the workload process",
    }
    for name, (value, unit) in metrics.items():
        lines.append(f"{name}: {value:.6g} {unit}  ({notes[name]})")
    extra = {"op_tail_pct": pct, "op_tail_beyond": beyond, "op_seconds": times,
             "op_seconds_unscaled": raw, "op_reference_s": [op[3] for op in ops],
             "op_rows": [op[1] for op in ops], "setup_samples_s": setup_samples,
             "setup_unscaled": setup, "reference_s": REFERENCE_S}
    return metrics, extra


def _per_layer(result, lines):
    # Busy times scaled to the reference speed, by the run's median
    # reference-loop time; counts and ratios as counted.
    scale = REFERENCE_S / statistics.median(op[3] for op in result["ops"])
    layers = {name: value * scale if _unit(name) == "s" else value
              for name, value in result["layers"].items()}
    lines.append(f"traced: {result['rounds']} rounds of the op cycle, "
                 f"{result['spans']} spans written to {result['spans_file']}")
    busy = {name[:-len(".busy_s")]: v for name, v in layers.items()
            if name.endswith(".busy_s")}
    busy["simkit"] = layers["simkit.self_s"] + layers["simkit.append_s"] + layers["simkit.metrics_s"]
    busy["csv"] = layers["simkit.export_s"] + layers["simkit.load_s"]
    busy["cli"] = layers["cli.self_s"]
    total = sum(busy.values()) or 1.0
    shares = sorted(busy.items(), key=lambda kv: -kv[1])
    lines.append("self time per traced op: " + ", ".join(
        f"{name} {value:.4f} s ({value / total:.0%})" for name, value in shares if value))
    for name, value in layers.items():
        lines.append(f"{name}: {value:.6g}")
    metrics = {name: (value, _unit(name)) for name, value in layers.items()}
    return metrics, {"dominant_layer": shares[0][0],
                     "layer_share": {k: v / total for k, v in busy.items()}}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="analog, digital, hop or cli")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "chaoslink", "__init__.py")):
        print("error: run from the root of a chaoslink checkout "
              "(src/chaoslink not found)", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)

    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        if args.trace:
            _, _, result = _worker(root, out_dir, args, "trace", args.seconds, deadline)
        else:
            setup = [_worker(root, out_dir, args, "setup", 0, deadline)[:2]
                     for _ in range(SETUP_PROCESSES - 1)]
            ready_s, reference, result = _worker(root, out_dir, args, "time",
                                                 args.seconds, deadline)
            setup.append((ready_s, reference))
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = dict(result["env"], numba=_package_version("numba"),
               nproc=os.cpu_count(), cpu=_cpu_model(), seed=args.seed,
               commit=_git_commit(root))
    backend = "numba" if env["using_numba"] else "pure-Python fallback"
    lines = [f"workload: {args.workload}  seed: {args.seed}  backend: {backend} "
             f"(USING_NUMBA={env['using_numba']}, numba {env['numba']})",
             f"python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
             f"cpu {env['cpu']}  commit {env['commit']}"]
    if args.trace:
        metrics, extra = _per_layer(result, lines)
    else:
        metrics, extra = _end_to_end(result, setup, lines)

    attempted = len(result["ops"])
    failed = sum(1 for op in result["ops"] if not op[2])
    lines.append(f"failed_frac: {failed / attempted:.6g}  ({failed} of {attempted} ops)")
    if result["observed"]:
        lines.append("observed, not gated: " + ", ".join(
            f"{key} {value}" for key, value in result["observed"].items()))
    for problem in result["problems"][:10]:
        lines.append(f"check failed: {problem}")
    lines.append(f"output digest: {result['digest']}  "
                 f"(first {len(result['op_digests'])} ops)")

    record = {
        "env": env, "workload": args.workload, "trace": args.trace,
        "seconds": args.seconds, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "output_digest": result["digest"],
        "op_digests": result["op_digests"], "problems": result["problems"],
        "observed": result["observed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    record_path = os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}"
                                        f"-trace{args.trace}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)
    lines.append(f"record: {os.path.relpath(record_path, root)}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
