"""Span and counter recorder, and the hooks that feed it.

The hooks wrap, from outside the package, the calls that ``chaoslink.simkit``
and ``chaoslink.cli`` make into each layer module.  Every wrapped call records
one span (name, start, end, parent span, op id) in memory; counters are kept
at the same boundaries.  ``Recorder.save`` writes the spans out once the run
ends and ``layer_metrics`` derives the per-layer figures from them.

A hook whose target no longer exists is skipped: its layer then reports zero
calls, which is what a later change that deletes the target should see.
"""

import dataclasses
import importlib
import inspect
import os
import time
from array import array

import numpy as np

# Layer name -> module.  "accel" is chaoslink._accel (a metric name may not
# start with "_").
LAYERS = {
    "accel": "chaoslink._accel",
    "core": "chaoslink.core",
    "control": "chaoslink.control",
    "masking": "chaoslink.masking",
    "bitcodec": "chaoslink.bitcodec",
    "fixedpoint": "chaoslink.fixedpoint",
    "hopper": "chaoslink.hopper",
}

# simkit's and cli's own entry points, by span name.
SIMKIT_PARTS = {
    "run_sync_session": "simkit.session",
    "run_transmit_session": "simkit.session",
    "run_digital_session": "simkit.session",
    "run_hop_session": "simkit.session",
    "_sync_step": "simkit.metrics",
    "export_csv": "simkit.export",
    "export_hops_csv": "simkit.export",
    "load_trace_csv": "simkit.load",
    "load_config": "simkit.config",
}

ERROR_LAYERS = tuple(LAYERS) + ("simkit", "cli")


class Recorder:
    """Spans as parallel columns, plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.failed = array("b")
        self.counters: dict[str, float] = {}
        self._stack = [-1]
        self.op_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def enter(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.failed.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def exit(self, idx: int, failed: bool) -> None:
        self.end[idx] = time.perf_counter()
        if failed:
            self.failed[idx] = 1
        self._stack.pop()

    def count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            failed=np.frombuffer(self.failed, dtype=np.int8),
        )


def _arg(fn, names):
    """Position of the first parameter of fn named in names, else None."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    for name in names:
        if name in params:
            return params.index(name)
    return None


def _get(args, kwargs, pos, name):
    return args[pos] if pos < len(args) else kwargs[name]


def _counter_for(rec, span: str, fn):
    """Counter update run after a call of fn, or None for plain spans."""
    layer, _, func = span.partition(".")
    if layer in ("accel", "fixedpoint"):
        pos = _arg(fn, ("n_steps", "steps"))
        saturations = span == "fixedpoint.fx_run_sync"

        def steps(args, kwargs, result):
            if pos is not None:
                n = int(args[pos] if pos < len(args) else
                        kwargs.get("n_steps", kwargs.get("steps", 0)))
            else:  # kernels sized by their first array argument
                n = next((a.size for a in args if isinstance(a, np.ndarray)), 0)
            rec.count(f"{layer}.steps", n)
            if saturations:
                rec.count("fixedpoint.saturations", int(result.saturations))

        return steps
    if layer == "bitcodec":
        def bits(args, kwargs, result):
            first = args[0] if args else next(iter(kwargs.values()), ())
            rec.count("bitcodec.bits", int(np.size(first)))

        return bits
    if span == "hopper.hop_trigger":
        def trigger(args, kwargs, result):
            rec.count("hopper.trigger_calls")
            rec.count("hopper.trigger_items",
                      len(_get(args, kwargs, 0, "epsilon_history")))
            rec.count("hopper.trigger_hits", int(bool(result)))

        return trigger
    if span == "simkit.session":
        return lambda args, kwargs, result: rec.count("simkit.rows", len(result[0]))
    if span == "simkit.export":
        def written(args, kwargs, result):
            rec.count("simkit.export_bytes",
                      os.path.getsize(_get(args, kwargs, 1, "path")))

        return written
    return None


def _wrap(rec, fn, span: str):
    """Span around every call of fn, then its counters, if any."""
    name_id = rec.name_id(span)
    counter = _counter_for(rec, span, fn)

    def wrapper(*args, **kwargs):
        idx = rec.enter(name_id)
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
        finally:
            rec.exit(idx, failed)
        if counter is not None:
            counter(args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


class Hooks:
    """Installs and removes the wrappers; untraced ops run with none."""

    def __init__(self, rec: Recorder):
        self.simkit = importlib.import_module("chaoslink.simkit")
        self.cli = importlib.import_module("chaoslink.cli")
        self._saved: list[tuple[object, str, object]] = []
        # id(original) -> wrapper, for every hooked function.
        self._wrappers: dict[int, object] = {}
        self._plan: list[tuple[object, str, object]] = []
        for layer, name in LAYERS.items():
            module = importlib.import_module(name)
            for attr, obj in list(vars(module).items()):
                if (not attr.startswith("_") and callable(obj)
                        and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == name):
                    self._hook(rec, module, attr, obj, f"{layer}.{attr}")
        for attr, span in SIMKIT_PARTS.items():
            if callable(getattr(self.simkit, attr, None)):
                self._hook(rec, self.simkit, attr, getattr(self.simkit, attr), span)
        trace_cls = getattr(self.simkit, "SessionTrace", None)
        if trace_cls is not None and "append" in vars(trace_cls):
            self._hook(rec, trace_cls, "append", vars(trace_cls)["append"],
                       "simkit.append")
        if callable(getattr(self.cli, "main", None)):
            self._hook(rec, self.cli, "main", self.cli.main, "cli.main")
        # Names simkit and cli imported from a hooked module.
        for caller in (self.simkit, self.cli):
            for attr, obj in list(vars(caller).items()):
                if id(obj) in self._wrappers:
                    self._plan.append((caller, attr, obj))

    def _hook(self, rec, namespace, attr, original, span) -> None:
        if span == "masking.get_operator":
            wrapper = _wrap_operator_lookup(rec, original)
        else:
            wrapper = _wrap(rec, original, span)
        self._wrappers[id(original)] = wrapper
        self._plan.append((namespace, attr, original))

    def install(self) -> None:
        for namespace, attr, original in self._plan:
            if vars(namespace).get(attr) is original:
                setattr(namespace, attr, self._wrappers[id(original)])
                self._saved.append((namespace, attr, original))
        # Dispatch tables such as cli._SESSIONS hold the functions themselves.
        for caller in (self.simkit, self.cli):
            for table in list(vars(caller).values()):
                if isinstance(table, dict):
                    for key, value in list(table.items()):
                        if id(value) in self._wrappers:
                            table[key] = self._wrappers[id(value)]
                            self._saved.append((table, key, value))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._saved):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._saved.clear()


def _wrap_operator_lookup(rec, get_operator):
    """Operators' forward/recover are masking calls simkit makes per step."""
    lookup = _wrap(rec, get_operator, "masking.get_operator")

    def wrapped(name):
        op = lookup(name)
        if not dataclasses.is_dataclass(op):
            return op
        return dataclasses.replace(
            op,
            forward=_wrap(rec, op.forward, "masking.forward"),
            recover=_wrap(rec, op.recover, "masking.recover"),
        )

    wrapped.__wrapped__ = get_operator
    return wrapped


def layer_metrics(rec: Recorder, traced_ops: int) -> dict:
    """Per-layer figures, each per traced op.

    A span's self time is its duration minus that of its direct children
    (calls are sequential, so children never overlap).
    """
    start = np.frombuffer(rec.start, dtype=np.float64)
    dur = np.frombuffer(rec.end, dtype=np.float64) - start
    parent = np.frombuffer(rec.parent, dtype=np.int32)
    has_parent = parent >= 0
    covered = np.zeros_like(dur)
    np.add.at(covered, parent[has_parent], dur[has_parent])
    self_time = dur - covered

    name = np.frombuffer(rec.name, dtype=np.int32)
    failed = np.frombuffer(rec.failed, dtype=np.int8).astype(bool)
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

    def named(*wanted):
        ids = [i for i, n in enumerate(rec.names) if n in wanted]
        return np.isin(name, ids)

    def in_layer(layer):
        ids = [i for i, n in enumerate(rec.names) if n.partition(".")[0] == layer]
        return np.isin(name, ids)

    def busy(mask):
        return float(self_time[mask].sum()) / traced_ops

    def calls(mask):
        return int(np.count_nonzero(mask)) / traced_ops

    def counter(key):
        return rec.counters.get(key, 0) / traced_ops

    out = {}
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = busy(in_layer(layer))
        out[f"{layer}.calls"] = calls(in_layer(layer))
    for key in ("accel.steps", "bitcodec.bits", "fixedpoint.steps",
                "fixedpoint.saturations", "hopper.trigger_calls",
                "hopper.trigger_items"):
        out[key] = counter(key)
    trigger_calls = rec.counters.get("hopper.trigger_calls", 0)
    out["hopper.trigger_hit_ratio"] = (
        rec.counters.get("hopper.trigger_hits", 0) / trigger_calls
        if trigger_calls else 0.0)
    # Rows appended while reading a CSV back are part of the load.
    load_ids = [i for i, n in enumerate(rec.names) if n == "simkit.load"]
    load_append = named("simkit.append") & np.isin(parent_name, load_ids)
    append = named("simkit.append") & ~load_append
    out["simkit.self_s"] = busy(named("simkit.session"))
    out["simkit.append_s"] = busy(append)
    out["simkit.append_calls"] = calls(append)
    out["simkit.metrics_s"] = busy(named("simkit.metrics"))
    out["simkit.rows"] = counter("simkit.rows")
    out["simkit.export_s"] = busy(named("simkit.export"))
    out["simkit.export_bytes"] = counter("simkit.export_bytes")
    out["simkit.load_s"] = busy(named("simkit.load") | load_append)
    out["simkit.config_s"] = busy(named("simkit.config"))
    out["cli.self_s"] = busy(named("cli.main"))
    for layer in ERROR_LAYERS:
        out[f"{layer}.errors"] = calls(in_layer(layer) & failed)
    return out
