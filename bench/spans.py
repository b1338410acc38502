"""Spans around the calls into each of the package's layers.

The tracer replaces module-level names that the package looks up at call
time (``angle_id.knn``, ``NeighborList.prefix``, ``cli.load_csv``, ...)
with timing wrappers, and puts the originals back on exit. Spans are kept
in memory, each with its parent, and written out when the run ends; a
span's self time is its duration minus the part of it that its children
cover. Spans that start on a worker thread with no open span of their own
(the CLI's thread pool) take the innermost open span of the thread that
entered the tracer as their parent.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager

from angleid import analysis, angle_id, baseline_id, cli, neighbors, synth


def _rows(args, kwargs, result):
    return len(args[0])


def _distances(args, kwargs, result):
    return args[0].n


def _bytes_read(args, kwargs, result):
    return os.path.getsize(args[0])


def _bytes_written(args, kwargs, result):
    return os.path.getsize(args[1])


# (object, attribute, span name or a function of the call's arguments that
# gives it, size of the work as a function of the call).
# The size becomes a span's ``n``: distances computed, rows, or bytes.
TARGETS = (
    (angle_id, "knn", "neighbors.knn", _distances),
    (analysis, "knn", "neighbors.knn", _distances),
    (angle_id, "direction_bundle", "neighbors.direction_bundle", None),
    (analysis, "direction_bundle", "neighbors.direction_bundle", None),
    (neighbors.NeighborList, "prefix", "neighbors.prefix", None),
    (neighbors.DirectionBundle, "prefix", "neighbors.prefix", None),
    (angle_id, "cosine_square_stats", "angle_id.cosine_square_stats", None),
    (angle_id, "abid", "angle_id.estimators", None),
    (angle_id, "rabid", "angle_id.estimators", None),
    (baseline_id, "mle_hill", "baseline_id.estimators", None),
    (baseline_id, "mom", "baseline_id.estimators", None),
    (baseline_id, "ged", "baseline_id.estimators", None),
    (angle_id, "estimate_table", "angle_id.estimate_table", None),
    (angle_id, "EstimateTable", "core.EstimateTable", _rows),
    (analysis, "trails", "analysis.trails", None),
    (analysis, "histogram", "analysis.histogram", None),
    (analysis, "write_histogram_csv", "analysis.write_histogram_csv", None),
    (cli, "_read_column", "cli.read_column", None),
    (cli, "load_csv", "core.load_csv", _bytes_read),
    (cli, "write_csv", "core.write_csv", _bytes_written),
    (synth, "generate", "synth.generate", None),
    (cli, "main", lambda args: f"cli.{args[0][0]}", None),
)

ESTIMATOR_SPANS = ("angle_id.estimators", "baseline_id.estimators")


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "n", "children")

    def __init__(self, sid, parent, name):
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = time.perf_counter()
        self.end = None
        self.n = None
        self.children = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        """Duration minus the union of the children's intervals within it."""
        covered, reach = 0.0, self.start
        for c in sorted(self.children, key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.duration - covered


class Tracer:
    """Patches the layer entry points while active; collects spans and flags."""

    def __init__(self):
        self.spans: list[Span] = []
        self.flags: dict[str, int] = {}
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._lock = threading.Lock()
        self._saved = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            span = Span(len(self.spans), parent, name)
            self.spans.append(span)
            if parent is not None:
                parent.children.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def _wrap(self, fn, name, size):
        tracer = self
        counts_flags = name in ESTIMATOR_SPANS

        def wrapper(*args, **kwargs):
            span = tracer.open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if size is not None:
                span.n = size(args, kwargs, result)
            if counts_flags:
                with tracer._lock:
                    for flag in result.flags:
                        tracer.flags[flag] = tracer.flags.get(flag, 0) + 1
            return result

        return wrapper

    def __enter__(self):
        self._main_stack = self._stack()
        for obj, attr, name, size in TARGETS:
            original = obj.__dict__[attr]
            self._saved.append((obj, attr, original))
            setattr(obj, attr, self._wrap(original, name, size))
        return self

    def __exit__(self, *exc):
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved.clear()

    def export(self) -> list[list]:
        """Spans as ``[id, parent, name, start, duration, self, n]`` rows."""
        return [
            [s.id, None if s.parent is None else s.parent.id, s.name,
             s.start, s.duration, s.self_time(), s.n]
            for s in self.spans
        ]
