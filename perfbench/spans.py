"""Spans recorded around layer calls, and the self-time arithmetic on them.

A :class:`Recorder` keeps every span in memory while the traced half of
a run executes and writes them out once, at the end.  A span is one
call into a layer's public function: its name, start and end on the
``perf_counter_ns`` clock, the span that was open on the same thread
when it began (its parent), and the benchmark request ids it carried.

Self time is a span's duration minus the part of that interval its
child spans cover (:func:`self_times`).  Children normally nest inside
their parent, but the arithmetic clips and merges them, so overlapping
or overhanging children are never counted twice.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, TypeVar

T = TypeVar("T")


@dataclass(frozen=True)
class Span:
    """One recorded call: ``[start_ns, end_ns)`` on the perf counter."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start_ns: int
    end_ns: int
    request_ids: tuple[int, ...] = ()

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Recorder:
    """Thread-safe in-memory span log with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(
        self,
        name: str,
        fn: Callable[..., T],
        args: Sequence[object] = (),
        kwargs: Optional[dict] = None,
        request_ids: tuple[int, ...] = (),
    ) -> T:
        """Run ``fn(*args, **kwargs)`` inside a span named *name*."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(
                Span(span_id, parent, name, start, end, request_ids)
            )

    def write_jsonl(self, path: str) -> None:
        """Write every span, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span.span_id,
                            "parent": span.parent_id,
                            "name": span.name,
                            "start_ns": span.start_ns,
                            "end_ns": span.end_ns,
                            "requests": list(span.request_ids),
                        }
                    )
                    + "\n"
                )


def covered_ns(
    intervals: Iterable[tuple[int, int]], lo: int, hi: int
) -> int:
    """Length of the union of *intervals*, clipped to ``[lo, hi)``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if end > lo and start < hi
    )
    total = 0
    run_start: Optional[int] = None
    run_end = lo
    for start, end in clipped:
        if run_start is None or start > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_start is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, int]:
    """Self time in ns of every span, keyed by span id."""
    children: "defaultdict[int, list[tuple[int, int]]]" = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start_ns, span.end_ns))
    return {
        span.span_id: span.duration_ns
        - covered_ns(
            children.get(span.span_id, ()), span.start_ns, span.end_ns
        )
        for span in spans
    }


def roots(spans: Sequence[Span]) -> dict[int, Span]:
    """Map every span id to the outermost span of its tree."""
    by_id = {span.span_id: span for span in spans}
    found: dict[int, Span] = {}
    for span in spans:
        top = span
        while top.parent_id is not None and top.parent_id in by_id:
            top = by_id[top.parent_id]
        found[span.span_id] = top
    return found


@dataclass(frozen=True)
class LayerTotals:
    """Per-name sums over the spans of one name."""

    calls: int
    total_ns: int
    self_ns: int
    root_ns: int  # summed durations of the distinct roots above them

    @property
    def mean_self_s(self) -> float:
        return self.self_ns / self.calls / 1e9 if self.calls else 0.0

    @property
    def mean_s(self) -> float:
        return self.total_ns / self.calls / 1e9 if self.calls else 0.0

    @property
    def share(self) -> float:
        """Self time as a share of the root spans that contain it."""
        return self.self_ns / self.root_ns if self.root_ns else 0.0


def layer_totals(spans: Sequence[Span]) -> dict[str, LayerTotals]:
    """Calls, total, self and root time per span name."""
    selfs = self_times(spans)
    tops = roots(spans)
    calls: "defaultdict[str, int]" = defaultdict(int)
    total: "defaultdict[str, int]" = defaultdict(int)
    own: "defaultdict[str, int]" = defaultdict(int)
    root_ids: "defaultdict[str, set[int]]" = defaultdict(set)
    for span in spans:
        calls[span.name] += 1
        total[span.name] += span.duration_ns
        own[span.name] += selfs[span.span_id]
        root_ids[span.name].add(tops[span.span_id].span_id)
    by_id = {span.span_id: span for span in spans}
    return {
        name: LayerTotals(
            calls[name],
            total[name],
            own[name],
            sum(by_id[root].duration_ns for root in root_ids[name]),
        )
        for name in calls
    }
