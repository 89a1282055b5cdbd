"""Span recording and the arithmetic the benchmark reports from it.

A span is one call into a layer: its name, start and end (``perf_counter``
seconds), the index of the span that was open when it began, and the index
of the task it belongs to. Spans live in one in-memory list while a run is
traced and are written out only after the run, so recording costs two clock
reads and an append per call.

This module uses only the standard library, so its arithmetic can be tested
without the planner.
"""

from __future__ import annotations

import functools
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

TAIL_SAMPLES = 10


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    task: int | None


class SpanRecorder:
    """Collects nested spans and named counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.task: int | None = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), math.nan, parent, self.task))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was innermost")

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add to a counter; work done outside any task is not counted."""
        if self.task is not None:
            self.counts[name] += amount

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps([span.name, span.start, span.end, span.parent, span.task]) + "\n"
                )


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - covered(children[i], span.start, span.end)
        for i, span in enumerate(spans)
    ]


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------


def rank(n: int, q: float) -> int:
    """Nearest-rank position (1-based) of the ``q``-th percentile of ``n`` samples."""
    if n < 1:
        raise ValueError("a percentile needs at least one sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {q}")
    return max(1, math.ceil(q * n / 100.0))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``% of
    the samples at or below it."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), q) - 1]


def beyond(n: int, q: float) -> int:
    """Samples strictly above the ``q``-th percentile's rank."""
    return n - rank(n, q)


def samples_needed(q: float, tail: int = TAIL_SAMPLES) -> int:
    """Fewest samples that leave ``tail`` of them beyond the ``q``-th percentile."""
    n = 1
    while beyond(n, q) < tail:
        n += 1
    return n
