"""Timing statistics and the closed loop every workload runs in."""

from __future__ import annotations

import gc
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Iterator

import numpy as np

#: A tail percentile is reported only with at least this many samples
#: beyond it, so p90 needs 100 ops.
MIN_BEYOND = 10

#: A loop stops after this long even mid-deck and short of its op count,
#: so one run stays inside its time limit whatever the program's speed.
MAX_LOOP_S = 75.0

#: The calibration's time on a quiet host; host factors are relative to it.
CALIB_REF_S = 0.002
#: Least time between two calibrations in a loop.
CALIB_EVERY_S = 0.25


def host_factor(calibrations: list[float]) -> float:
    """Median calibration time over :data:`CALIB_REF_S`; 1.0 without
    calibrations.  Dividing a time by it reports the time at the speed of
    a quiet host."""
    if not calibrations:
        return 1.0
    return statistics.median(calibrations) / CALIB_REF_S


class Calibration:
    """A fixed mix of dict building, sorting and NumPy arithmetic that
    shares no code with the program.  Timed between ops, it measures how
    much slower than a quiet host the machine runs (see
    :func:`host_factor`); the host is shared, and its speed drifts by tens
    of percent over minutes."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self.keys = [rng.randrange(10 ** 9) for _ in range(4000)]
        self.array = np.arange(60000)

    def _work(self) -> None:
        table = {k: (k, k + 1) for k in self.keys}
        order = sorted(table, key=table.get)
        self.checksum = int((self.array * 3 % 7).sum()) + order[0]

    def __call__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> float:
        # The first pass refills the caches the op evicted, and the
        # collector is off, so neither what the op touched nor the size of
        # the program's heap reaches the timed pass.
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._work()
            t0 = clock()
            self._work()
            return clock() - t0
        finally:
            if enabled:
                gc.enable()


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile of ``n``."""
    return n - math.ceil(q * n - 1e-9)


def min_samples(q: float, need: int = MIN_BEYOND) -> int:
    """Fewest samples that leave ``need`` of them beyond the ``q``
    percentile."""
    n = need
    while beyond(n, q) < need:
        n += 1
    return n


def percentile(samples: list[float], q: float,
               need: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q`` percentile; raises ``ValueError`` when fewer than
    ``need`` samples lie beyond it (the value would rest on too few)."""
    n = len(samples)
    if n == 0 or beyond(n, q) < need:
        raise ValueError(
            f"p{round(q * 100)} of {n} samples leaves "
            f"{beyond(n, q) if n else 0} beyond it; need {need} "
            f"(>= {min_samples(q, need)} samples)")
    return sorted(samples)[math.ceil(q * n - 1e-9) - 1]


def median(samples: list[float]) -> float:
    return percentile(samples, 0.5, need=0)


class OpFailure(Exception):
    """An op produced a wrong output (verdict, digest or verification)."""


@dataclass
class LoopResult:
    """What one closed loop measured.  ``latencies`` holds every attempted
    op, failed ones included, so a failure never shortens the tail."""

    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    instances: int = 0
    wall_s: float = 0.0
    calibrations: list[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def ops_per_s(self) -> float:
        return self.attempted / self.wall_s

    @property
    def instances_per_s(self) -> float:
        return self.instances / self.wall_s

    @property
    def host_factor(self) -> float:
        return host_factor(self.calibrations)


def closed_loop(run_op: Callable[[object], int], items: Iterator,
                *, seconds: float, deck_len: int,
                min_ops: int = min_samples(0.9),
                after_op: Callable[[object], None] = lambda item: None,
                op_context: Callable[[int], ContextManager] | None = None,
                calibrate: Callable[[], float] | None = None,
                clock: Callable[[], float] = time.perf_counter,
                max_s: float = MAX_LOOP_S) -> LoopResult:
    """One client: each op starts when the previous one has returned.

    The loop runs whole decks (``deck_len`` items, the same multiset for
    every seed) until ``seconds`` have passed and ``min_ops`` ops are done;
    it stops mid-deck only once ``max_s`` have passed.  ``run_op`` returns the number of input
    instances it verified; any exception it raises is a failed op.
    ``after_op`` does untimed cleanup; ``op_context(i)`` wraps the timed
    call (the traced run opens its op span there).  ``calibrate`` runs,
    untimed, after the first op and then at most every
    :data:`CALIB_EVERY_S` between ops.
    """
    out = LoopResult()
    start = clock()
    calibrated = float("-inf")
    for i, item in enumerate(items):
        elapsed = clock() - start
        if elapsed >= max_s or (i % deck_len == 0 and i >= min_ops
                                and elapsed >= seconds):
            break
        t0 = clock()
        try:
            if op_context is None:
                out.instances += run_op(item)
            else:
                with op_context(i):
                    out.instances += run_op(item)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            out.failures.append(f"op {i}: {type(exc).__name__}: {exc}")
        finally:
            out.latencies.append(clock() - t0)
        after_op(item)
        if calibrate is not None and clock() - calibrated >= CALIB_EVERY_S:
            out.calibrations.append(calibrate())
            calibrated = clock()
    out.wall_s = sum(out.latencies)
    return out
