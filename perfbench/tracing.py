"""Span tracing of stkit's layers, installed from outside the program.

``Tracer.install`` replaces the public module-level functions of each layer
(plus the two private splits ``runner._write_predictions`` and
``mapmatch._route_distances``, and the baselines' ``predict`` methods) with
wrappers that record one span per call: name, start, end, parent span and
operation id. Every reference to a wrapped function inside the ``stkit``
package is replaced, because modules import each other's functions by name.
``uninstall`` puts the originals back. A hook whose target no longer exists
is skipped and listed in ``absent``; the metrics built on it are left out.

Spans stay in memory and are written out once, when the run ends.
``layer_metrics`` turns them into the per-layer numbers.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


class Tracer:
    def __init__(self):
        # One row per span: [name, start, end, parent index or None, op id].
        self.spans: list[list] = []
        # op id -> counter name -> value
        self.counters: dict[str, dict[str, float]] = {}
        self.absent: list[str] = []
        self.op: str = ""
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        row = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(row)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float = 1):
        ops = self.counters.setdefault(self.op, {})
        ops[name] = ops.get(name, 0) + n

    def wrap(self, fn: Callable, name: str, hook: "Hook | None" = None) -> Callable:
        signature = inspect.signature(fn) if hook and (hook.before or hook.counter) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if signature is None:
                with self.span(name):
                    return fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            if hook.before is not None:
                hook.before(self, bound.arguments)
            with self.span(name):
                result = fn(*bound.args, **bound.kwargs)
            if hook.counter is not None:
                self.count(hook.counter, hook.measure(bound.arguments, result))
            return result

        return traced

    def install(self, hooks: list["Hook"]):
        """Wrap every hook's target; ``uninstall`` undoes it."""
        self.absent = []
        modules = [m for k, m in sys.modules.items() if k == "stkit" or k.startswith("stkit.")]
        for hook in hooks:
            module = sys.modules.get(hook.module)
            owner_name, _, attr = hook.target.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.absent.append(f"{hook.module}.{hook.target}")
                continue
            wrapped = self.wrap(original, hook.span, hook)
            if owner_name:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters, "absent": self.absent}


@dataclass(frozen=True)
class Hook:
    module: str
    target: str  # function name, or Class.method
    span: str
    # Adds measure(arguments by name, result) to the op's counter per call.
    counter: str | None = None
    measure: Callable | None = None
    # before(tracer, arguments by name) may replace arguments.
    before: Callable | None = None


def _trials_as_spans(tracer: Tracer, arguments: dict):
    # Each call of run_search's runner callback is one trial span.
    arguments["runner"] = tracer.wrap(arguments["runner"], "search.trial")


def _observed_cells(arguments, result):
    _, mask = result
    return int(mask.values.sum())


HOOKS = [
    Hook("stkit.atomic", "parse_table", "atomic.parse_table",
         counter="rows_parsed", measure=lambda a, r: len(r)),
    Hook("stkit.atomic", "write_table", "atomic.write_table",
         counter="rows_written", measure=lambda a, r: max(r.count(b"\n") - 1, 0)),
    Hook("stkit.dataset", "load_dataset", "dataset.load"),
    Hook("stkit.dataset", "validate_dataset", "dataset.validate"),
    Hook("stkit.tensorize", "build_time_axis", "tensorize.time_axis"),
    Hook("stkit.tensorize", "dyna_to_graph_tensor", "tensorize.tensor",
         counter="cells_observed", measure=_observed_cells),
    Hook("stkit.tensorize", "grid_to_tensor", "tensorize.tensor",
         counter="cells_observed", measure=_observed_cells),
    Hook("stkit.tensorize", "od_to_tensor", "tensorize.tensor",
         counter="cells_observed", measure=_observed_cells),
    Hook("stkit.tensorize", "build_trajectories", "tensorize.build_trajectories"),
    Hook("stkit.pipeline", "fit_scaler", "pipeline.fit_scaler"),
    Hook("stkit.pipeline", "split_windows", "pipeline.split_windows",
         counter="windows", measure=lambda a, r: sum(len(v) for v in r.values())),
    Hook("stkit.pipeline", "make_batches", "pipeline.make_batches"),
    Hook("stkit.baselines", "ha_fit", "baselines.fit"),
    Hook("stkit.baselines", "var_fit", "baselines.fit"),
    Hook("stkit.baselines", "HAModel.predict", "baselines.predict"),
    Hook("stkit.baselines", "VARModel.predict", "baselines.predict"),
    Hook("stkit.baselines", "PersistenceModel.predict", "baselines.predict"),
    Hook("stkit.evaluate", "evaluate_forecast", "evaluate.forecast"),
    Hook("stkit.evaluate", "match_metrics", "evaluate.match_metrics"),
    Hook("stkit.runner", "cmd_run", "runner.cmd_run"),
    Hook("stkit.runner", "cmd_tune", "runner.cmd_tune"),
    Hook("stkit.runner", "_write_predictions", "runner.write_predictions",
         counter="predictions_bytes", measure=lambda a, r: os.path.getsize(a["path"])),
    Hook("stkit.mapmatch", "build_road_network", "mapmatch.build_network"),
    Hook("stkit.mapmatch", "viterbi_match", "mapmatch.match",
         counter="breaks", measure=lambda a, r: len(r.breaks)),
    Hook("stkit.mapmatch", "candidate_segments", "mapmatch.candidates",
         counter="candidates", measure=lambda a, r: len(r)),
    Hook("stkit.mapmatch", "_route_distances", "mapmatch.route"),
    Hook("stkit.mapmatch", "shortest_route", "mapmatch.shortest_route"),
    Hook("stkit.search", "run_search", "search.run_search", before=_trials_as_spans),
    Hook("stkit.leaderboard", "build_leaderboard", "leaderboard.build"),
    Hook("stkit.synthetic", "generate_synthetic", "synthetic.generate"),
    Hook("stkit.synthetic", "save_synthetic", "synthetic.save"),
]


def union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, each clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for s, e in sorted(intervals):
        s, e = max(s, end), min(e, hi)
        if e > s:
            total += e - s
            end = e
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [
        (end - start) - union_length(children[i], start, end)
        for i, (_, start, end, *_) in enumerate(spans)
    ]


def per_op(dump: dict) -> dict[str, dict]:
    """Per op id: {name: [durations]}, {name: self seconds}, counters."""
    spans = dump["spans"]
    selfs = self_times(spans)
    ops: dict[str, dict] = {}
    for (name, start, end, _, op), own in zip(spans, selfs):
        entry = ops.setdefault(op, {"durations": {}, "self": {}})
        entry["durations"].setdefault(name, []).append(end - start)
        entry["self"][name] = entry["self"].get(name, 0.0) + own
    for op, entry in ops.items():
        entry["counters"] = dump["counters"].get(op, {})
    return ops


# (metric, unit, phase, how, source). Phase "setup" values are per set-up,
# "run" values per traced operation; each metric is the median over them.
# how: total = summed span seconds, self = summed self seconds, calls = span
# count, median = median span seconds, counter = counter value, per_call =
# counter / span count of the source span.
LAYER_METRICS = [
    ("atomic.parse_table_s", "s", "run", "total", "atomic.parse_table"),
    ("atomic.rows_parsed", "count", "run", "counter", "rows_parsed"),
    ("atomic.write_table_s", "s", "run", "total", "atomic.write_table"),
    ("atomic.rows_written", "count", "run", "counter", "rows_written"),
    ("synthetic.generate_s", "s", "setup", "total", "synthetic.generate"),
    ("synthetic.save_s", "s", "setup", "total", "synthetic.save"),
    ("synthetic.rows_written", "count", "setup", "counter", "rows_written"),
    ("dataset.load_s", "s", "run", "total", "dataset.load"),
    ("dataset.validate_s", "s", "run", "total", "dataset.validate"),
    ("dataset.loads", "count", "run", "calls", "dataset.load"),
    ("tensorize.time_axis_s", "s", "run", "total", "tensorize.time_axis"),
    ("tensorize.tensor_s", "s", "run", "total", "tensorize.tensor"),
    ("tensorize.cells_observed", "count", "run", "counter", "cells_observed"),
    ("tensorize.build_trajectories_s", "s", "run", "total", "tensorize.build_trajectories"),
    ("pipeline.fit_scaler_s", "s", "run", "total", "pipeline.fit_scaler"),
    ("pipeline.split_windows_s", "s", "run", "total", "pipeline.split_windows"),
    ("pipeline.windows", "count", "run", "counter", "windows"),
    ("pipeline.make_batches_s", "s", "run", "total", "pipeline.make_batches"),
    ("baselines.fit_s", "s", "run", "total", "baselines.fit"),
    ("baselines.predict_s", "s", "run", "total", "baselines.predict"),
    ("evaluate.forecast_s", "s", "run", "total", "evaluate.forecast"),
    ("evaluate.match_metrics_s", "s", "run", "total", "evaluate.match_metrics"),
    ("runner.write_predictions_s", "s", "run", "total", "runner.write_predictions"),
    ("runner.predictions_bytes", "bytes", "run", "counter", "predictions_bytes"),
    ("runner.self_s", "s", "run", "self", ("runner.cmd_run", "runner.cmd_tune")),
    ("mapmatch.build_network_s", "s", "run", "total", "mapmatch.build_network"),
    ("mapmatch.match_s", "s", "run", "total", "mapmatch.match"),
    ("mapmatch.candidates_s", "s", "run", "total", "mapmatch.candidates"),
    ("mapmatch.candidates_per_point", "count", "run", "per_call",
     ("candidates", "mapmatch.candidates")),
    ("mapmatch.route_s", "s", "run", "total", "mapmatch.route"),
    ("mapmatch.route_calls", "count", "run", "calls", "mapmatch.route"),
    ("mapmatch.shortest_route_calls", "count", "run", "calls", "mapmatch.shortest_route"),
    ("mapmatch.decode_s", "s", "run", "self", "mapmatch.match"),
    ("mapmatch.breaks", "count", "run", "counter", "breaks"),
    ("search.trials", "count", "run", "calls", "search.trial"),
    ("search.trial_s", "s", "run", "median", "search.trial"),
    ("leaderboard.build_s", "s", "run", "total", "leaderboard.build"),
]

# Counter -> the span its hook records, so a missing hook drops its counters.
_COUNTER_SPANS = {h.counter: h.span for h in HOOKS if h.counter}


def _op_value(entry: dict, how: str, source) -> float:
    durations, selfs, counters = entry["durations"], entry["self"], entry["counters"]
    if how == "total":
        return sum(durations.get(source, ()))
    if how == "self":
        names = (source,) if isinstance(source, str) else source
        return sum(selfs.get(n, 0.0) for n in names)
    if how == "calls":
        return len(durations.get(source, ()))
    if how == "median":
        values = durations.get(source)
        return statistics.median(values) if values else 0.0
    if how == "counter":
        return counters.get(source, 0)
    if how == "per_call":
        counter, span = source
        calls = len(durations.get(span, ()))
        return counters.get(counter, 0) / calls if calls else 0.0
    raise ValueError(f"unknown metric kind {how!r}")


def _sources(source) -> list[str]:
    names = [source] if isinstance(source, str) else list(source)
    return [_COUNTER_SPANS.get(n, n) for n in names]


def layer_metrics(phases: dict[str, dict[str, dict]], missing: set[str]) -> dict:
    """{metric: {value, unit}} from per-op tables, one table per phase.

    A metric built on a span in ``missing`` (no hook could record it) is
    left out rather than reported as zero.
    """
    out = {}
    for name, unit, phase, how, source in LAYER_METRICS:
        if any(s in missing for s in _sources(source)):
            continue
        ops = phases.get(phase) or {}
        values = [_op_value(entry, how, source) for entry in ops.values()]
        out[name] = {"value": statistics.median(values) if values else 0.0, "unit": unit}
    return out


def missing_spans(absent_targets: list[str], hooks: list[Hook] = HOOKS) -> set[str]:
    """Span names none of whose hooks could be installed."""
    installed = {
        h.span for h in hooks if f"{h.module}.{h.target}" not in absent_targets
    }
    return {h.span for h in hooks} - installed
