"""In-memory spans around the calls into mpe's layers, and their summary.

The pipeline imports layer functions by name, so a function is wrapped
wherever a loaded `mpe` module binds it, not only where it is defined. The
backend object handed to `run_stage` is wrapped per instance: its
`complete` is the gateway span, and its inner backend's `complete` is the
model span. Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import math
import sys
import threading
import time

# (module, function); the span name is "<last module part>.<function>".
LAYER_FUNCTIONS = (
    ("mpe.trips", "parse_trip_records"),
    ("mpe.trips", "aggregate_daily_demand"),
    ("mpe.baselines", "fit_gbdt"),
    ("mpe.baselines", "predict_gbdt"),
    ("mpe.baselines", "featurize_day"),
    ("mpe.baselines", "fit_linear"),
    ("mpe.baselines", "save_model"),
    ("mpe.prompts", "build_prediction_prompt"),
    ("mpe.prompts", "build_event_format_prompt"),
    ("mpe.parsing", "parse_prediction"),
    ("mpe.parsing", "parse_formatted_event"),
    ("mpe.decomposition", "weekday_baseline"),
    ("mpe.decomposition", "read_decomposition_csv"),
    ("mpe.events", "parse_event_records"),
    ("mpe.events", "day_events_index"),
    ("mpe.metrics", "segment_report"),
    ("mpe.metrics", "write_report_csv"),
)
LAYER_NAMES = tuple(f"{m.rsplit('.', 1)[1]}.{f}" for m, f in LAYER_FUNCTIONS)
# Inner backend class name -> model span name.
MODEL_SPANS = {"HeuristicBackend": "heuristic.complete", "HttpBackend": "http.complete"}
GATEWAY_SPAN = "gateway.complete"
STAGE_PREFIX = "pipeline.stage."


class Tracer:
    """Records (id, parent, name, start, end, thread, phase, ok) spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.phase = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0  # the open stage span; parent of spans in pool threads

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def _open(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        span_id = next(self._ids)
        stack.append(span_id)
        ok = False
        start = time.perf_counter()
        try:
            yield span_id
            ok = True
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, parent, name, start, end, threading.get_ident(), self.phase, ok)
            )

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self._open(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def stage(self, stage: str):
        with self._open(STAGE_PREFIX + stage) as span_id:
            self._root = span_id
            try:
                yield
            finally:
                self._root = 0

    def patch_layers(self) -> None:
        for (module_name, attr), name in zip(LAYER_FUNCTIONS, LAYER_NAMES):
            original = getattr(importlib.import_module(module_name), attr)
            traced = self.wrap(name, original)
            for mod_name, module in list(sys.modules.items()):
                if mod_name.split(".")[0] == "mpe" and getattr(module, attr, None) is original:
                    setattr(module, attr, traced)

    def wrap_backend(self, backend) -> None:
        inner = getattr(backend, "inner", None)
        if inner is not None:
            name = MODEL_SPANS.get(type(inner).__name__, "model.complete")
            inner.complete = self.wrap(name, inner.complete)
            backend.complete = self.wrap(GATEWAY_SPAN, backend.complete)
        else:
            name = MODEL_SPANS.get(type(backend).__name__, "model.complete")
            backend.complete = self.wrap(name, backend.complete)

    def write(self, path) -> None:
        keys = ("id", "parent", "name", "start", "end", "thread", "phase", "ok")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def tail_percentile(n: int) -> float | None:
    """The highest of p99.9/p99/p90 with at least ten samples beyond it."""
    for q in (99.9, 99.0, 90.0):
        if n * (100.0 - q) / 100.0 >= 10:
            return q
    return None


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def summarize(spans, phase: str) -> dict:
    """Per span name: calls, busy and self seconds, failures, latency
    percentiles. Self time is a span's duration minus the part of it that
    its child spans cover."""
    spans = [s for s in spans if s[6] == phase]
    children: dict[int, list[tuple[float, float]]] = {}
    for _, parent, _, start, end, *_ in spans:
        children.setdefault(parent, []).append((start, end))
    out: dict[str, dict] = {}
    durations: dict[str, list[float]] = {}
    for span_id, _, name, start, end, _, _, ok in spans:
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(span_id, ())
            if min(e, end) > max(s, start)
        ]
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "failures": 0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += (end - start) - _union_length(clipped)
        entry["failures"] += not ok
        durations.setdefault(name, []).append((end - start) * 1e3)
    for name, values in durations.items():
        values.sort()
        out[name]["p50_ms"] = percentile(values, 50.0)
        q = tail_percentile(len(values))
        if q is not None:
            out[name]["tail_q"] = q
            out[name]["tail_ms"] = percentile(values, q)
    return out
