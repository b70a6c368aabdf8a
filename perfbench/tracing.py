"""Spans and allocation peaks recorded around the benchmark's calls into springleg.

Every public library call an op makes goes through ``tracer.call(name, fn, ...)``.
The untraced passes use :class:`NullTracer`, which only calls; the traced pass
uses :class:`Tracer`, which keeps (name, start, end, parent, op id) spans in
memory; the allocation pass uses :class:`AllocTracer`, which keeps the
tracemalloc peak of each call.  Spans of library calls are named
``<module>.<function>``, so the name prefix is the layer; the benchmark's own
spans are ``op``, ``probe`` and ``cmd.<command>``.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    op: int | str | None  # op number, or probe-<input> for a probe
    parent: int | None  # index of the enclosing span, None for a root
    start: float  # perf_counter seconds
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class NullTracer:
    """Calls through without recording anything."""

    op: int | None = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name):
        return contextlib.nullcontext()


class Tracer(NullTracer):
    """Keeps every span in memory; ``op`` tags the spans of the current op."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextlib.contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, self.op, parent, time.perf_counter()))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()


class AllocTracer(NullTracer):
    """Largest tracemalloc peak of each call name, in bytes above the
    memory already traced when the call started.  Start tracemalloc first."""

    def __init__(self) -> None:
        self.peaks: dict[str, int] = {}

    def call(self, name, fn, *args, **kwargs):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] - base
            self.peaks[name] = max(self.peaks.get(name, 0), peak)


def self_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total seconds and self seconds, where a
    span's self time is its duration minus the durations of its children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.seconds
    table: dict[str, dict[str, float]] = {}
    for span, covered in zip(spans, child):
        row = table.setdefault(span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += span.seconds
        row["self_s"] += span.seconds - covered
    return table
