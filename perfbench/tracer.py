"""In-memory spans around the benchmark's own calls into the library.

A span is (name, start, end, parent, item): `parent` is the index of the
enclosing span or -1, `item` the id of the benchmark item it belongs to.
Spans are kept in a list and written out once the run ends, so recording one
costs two clock reads and a list append.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    item: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; single-threaded, one open chain at a time."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, item: int = -1):
        parent = self._stack[-1] if self._stack else -1
        if item < 0 and parent >= 0:
            item = self.spans[parent].item
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, item))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.item]
                       for s in self.spans], fh)


class NullTracer:
    """Same interface as Tracer, records nothing (the untraced run)."""

    def span(self, name: str, item: int = -1):
        return nullcontext()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for idx, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(idx)
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children[idx], key=lambda j: spans[j].start):
            lo = max(spans[c].start, cursor)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + t
    return totals


def span_cost_s(repeats: int = 20000) -> float:
    """Cost of recording one span with no work inside, in seconds."""
    tracer = Tracer()
    t0 = time.perf_counter()
    for _ in range(repeats):
        with tracer.span("probe"):
            pass
    return (time.perf_counter() - t0) / repeats
