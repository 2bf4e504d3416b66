"""Spans recorded around calls into the program's layers.

Spans are taken only from the benchmark's side of each call: a traced
call of a public function, or a delegating store wrapper.  Nothing
inside the package is instrumented.  A span is a tuple
(name, start, end, parent, op); parent is the index of the enclosing
span or -1, op the schedule entry the call serves or None.  Spans stay
in memory until the run writes them out.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        # Parent of spans opened on threads the benchmark did not start.
        self.thread_parent = -1
        self.op = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else self.thread_parent

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span.

        Spans opened inside it, on this thread or on threads fn starts,
        become its children.  Only the benchmark's main thread calls this.
        """
        stack = self._stack()
        parent = stack[-1] if stack else self.thread_parent
        with self._lock:  # reserve the slot so children can point at it
            index = len(self.spans)
            self.spans.append(None)
        stack.append(index)
        outer, self.thread_parent = self.thread_parent, index
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            self.thread_parent = outer
            self.spans[index] = (name, start, end, parent, self.op)

    def leaf(self, name: str, start: float, end: float, op=None) -> None:
        """A span with no children, timed by the caller."""
        self.spans.append((name, start, end, self.parent(),
                           self.op if op is None else op))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps([name, start, end, parent, op]))
                handle.write("\n")


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_name, start, end, _parent, _op) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


class TracedStore:
    """Delegates to a store, recording a span for every query and update.

    op_of maps id(op) or id(params) of schedule entries to the entry's
    sequence number, so calls made by BenchmarkRunner carry an op id.
    """

    def __init__(self, inner, tracer: Tracer, layer: str, op_of: dict | None = None):
        self._inner = inner
        self._tracer = tracer
        self._layer = layer
        self._op_of = op_of or {}

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def execute_update(self, op):
        start = _clock()
        result = self._inner.execute_update(op)
        self._tracer.leaf(f"{self._layer}.execute_update.{op.op_type}", start,
                          _clock(), self._op_of.get(id(op)))
        return result

    def execute_query(self, variant, params, snapshot=None):
        start = _clock()
        result = self._inner.execute_query(variant, params, snapshot)
        self._tracer.leaf(f"{self._layer}.execute_query.{variant}", start,
                          _clock(), self._op_of.get(id(params)))
        return result
