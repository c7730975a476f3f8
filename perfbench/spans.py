"""In-memory span recording for the traced run, and self time.

Spans are recorded by the benchmark's own wrappers around calls into each
layer (see :mod:`perfbench.probes`), kept in memory and written once at
exit.  Sweep workers are forked from the benchmark process, so they inherit
the wrappers; each worker appends its finished spans to a spool file that
the parent folds back in after the op.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator


@dataclass
class Span:
    id: str
    name: str
    start: float
    end: float = 0.0
    parent: "str | None" = None
    op: "int | None" = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """A span stack per process; ``op`` marks the spans of one op."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.pid = os.getpid()
        self._stack: list[Span] = []
        self._op: "int | None" = None
        self._next = 0

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        self._next += 1
        span = Span(f"{os.getpid()}:{self._next}", name, self.clock(),
                    parent=self._stack[-1].id if self._stack else None,
                    op=self._op)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    @contextmanager
    def op(self, op_id: int) -> Iterator[Span]:
        self._op = op_id
        try:
            with self.span("op") as span:
                yield span
        finally:
            self._op = None

    def spool(self, directory: Path, mark: int) -> None:
        """Move the spans recorded since ``mark`` to this process's spool
        file (worker side)."""
        done = self.spans[mark:]
        del self.spans[mark:]
        with open(directory / f"{os.getpid()}.jsonl", "a") as fh:
            for span in done:
                fh.write(json.dumps(asdict(span)) + "\n")

    def collect(self, directory: Path) -> int:
        """Fold every worker spool file back in (parent side)."""
        n = 0
        for path in sorted(directory.glob("*.jsonl")):
            with open(path) as fh:
                for line in fh:
                    self.spans.append(Span(**json.loads(line)))
                    n += 1
            path.unlink()
        return n

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"meta": meta,
                       "spans": [asdict(s) for s in self.spans]}, fh)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Span id -> its duration minus the part of it its children cover.

    Children are clipped to the parent's interval and may overlap (sweep
    workers run side by side), so coverage is the union of their
    intervals."""
    children: dict[str, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        kids = [(max(c.start, span.start), min(c.end, span.end))
                for c in children.get(span.id, ())]
        out[span.id] = span.duration - _covered(
            [(lo, hi) for lo, hi in kids if hi > lo])
    return out
