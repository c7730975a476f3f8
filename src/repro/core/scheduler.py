"""Adaptive chunking work-stealing scheduler for batch sweeps.

The PR-2 pool was one-shot submit-all: every pending job became one
pickled task up front, results streamed back through ``as_completed``.
That shape has two scaling cliffs.  Per-job dispatch overhead (pickle a
:class:`~repro.core.batch.SweepJob`, a process round-trip, a stats-delta
merge) dwarfs the solve time of small jobs, and a static job→future
assignment cannot rebalance when one worker draws the slow tail of the
grid — the sweep ends when the unluckiest worker does.

This scheduler replaces it with the shape "Systolic Computing on GPUs"
argues for — *group homogeneous computations, execute dense*:

* **homogeneous chunks** — jobs are grouped by (problem, engine) class;
  a chunk only ever contains one class, so a worker executing it stays on
  one code path with warm per-problem state;
* **adaptive sizing** — chunk size targets
  :attr:`SchedulerConfig.target_chunk_s` of work using the p50 of the
  ``sweep.job_s.<class>`` latency histogram in the process telemetry
  registry.  The histogram is fed live as chunks complete (and persists
  across sweeps in-process), so early chunks are small probes and later
  chunks amortise dispatch overhead over many jobs;
* **per-worker deques, steal-on-idle** — each worker owns a deque of job
  indices (whole classes dealt longest-processing-time-first).  A worker
  takes its next chunk from its own deque's *head*; when empty it steals
  from the *tail* of the most-loaded deque (``sweep.steals``), so the
  slow tail of a sweep spreads over every idle worker instead of
  serialising on one;
* **crash salvage** — a broken pool (segfault, OOM kill) loses only the
  chunks in flight: completed futures are salvaged and every undispatched
  or lost job retries on the in-process serial path, stats deduplicated
  by (job key, engine) throughout.

The parent-side cache-probe fast path (warm jobs resolved before any
worker round-trip) lives in :func:`repro.core.batch.run_sweep`; by the
time jobs reach this scheduler they are all cache misses.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.obs import TRACER

if TYPE_CHECKING:                                       # pragma: no cover
    from repro.core.batch import SweepJob, SweepResult
    from repro.obs.progress import SweepProgress

_CHUNKS = TRACER.metrics.counter("sweep.chunks")
_STEALS = TRACER.metrics.counter("sweep.steals")


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of the chunking policy.

    ``target_chunk_s`` is the work each dispatched chunk should carry:
    large enough to amortise the pickle/round-trip/merge overhead, small
    enough that stealing still has tail work to rebalance.  With no
    latency telemetry yet, jobs are assumed to cost ``default_job_s``
    (deliberately high, so cold sweeps start with small probe chunks).
    """

    target_chunk_s: float = 0.25
    min_chunk: int = 1
    max_chunk: int = 64
    default_job_s: float = 0.25


def job_class(job: "SweepJob") -> str:
    """The homogeneity class of one job: same problem, same engine."""
    return f"{job.problem}/{job.options.engine}"


class ChunkPlanner:
    """Latency-driven chunk sizing over the telemetry histograms."""

    def __init__(self, config: "SchedulerConfig | None" = None,
                 registry=None) -> None:
        self.config = config or SchedulerConfig()
        self.registry = registry if registry is not None else TRACER.metrics

    def _histogram_name(self, cls: str) -> str:
        return f"sweep.job_s.{cls}"

    def observe(self, cls: str, seconds: float) -> None:
        """Feed one completed job's wall time into the class histogram."""
        self.registry.observe(self._histogram_name(cls), seconds)

    def estimated_job_s(self, cls: str) -> float:
        hist = self.registry.histograms.get(self._histogram_name(cls))
        if hist is None or not hist.count:
            return self.config.default_job_s
        p50 = hist.percentile(50)
        return max(p50 if p50 else 0.0, 1e-6)

    def chunk_size(self, cls: str) -> int:
        cfg = self.config
        size = int(cfg.target_chunk_s / self.estimated_job_s(cls))
        return max(cfg.min_chunk, min(cfg.max_chunk, size))


def _execute_chunk(jobs: "list[SweepJob]", cache_root: "str | None",
                   use_cache: bool,
                   tracing: bool = False) -> "list[SweepResult]":
    """Worker-side entry: run one homogeneous chunk job by job.

    Each job ships its own tracer wire (the per-job reset protocol of
    :func:`repro.core.batch._execute_job`), so chunked execution merges
    into the parent exactly like per-job execution did.
    """
    from repro.core.batch import _execute_job

    return [_execute_job(job, cache_root, use_cache, tracing,
                         in_worker=True) for job in jobs]


class WorkStealingScheduler:
    """Parent-mediated work stealing over a process pool.

    The deques live in the parent (workers are plain stateless functions),
    which keeps stealing free of cross-process synchronisation: the parent
    is the only mover, each worker always has at most one chunk in flight,
    and "idle" is precisely "your future completed and your deque is
    empty".
    """

    def __init__(self, jobs: "Sequence[SweepJob]", nworkers: int,
                 cache_root: "str | None", use_cache: bool,
                 tracker: "SweepProgress | None" = None,
                 config: "SchedulerConfig | None" = None,
                 on_result: "Callable[[SweepResult], None] | None" = None
                 ) -> None:
        self.jobs = list(jobs)
        self.nworkers = max(1, min(int(nworkers), len(self.jobs)))
        self.cache_root = cache_root
        self.use_cache = use_cache
        self.tracker = tracker
        self.planner = ChunkPlanner(config)
        self.on_result = on_result
        self._by_index: dict[int, "SweepResult"] = {}
        self._merged: set[str] = set()

    # -- deque construction --------------------------------------------------

    def _deal_deques(self) -> "list[deque[int]]":
        """Group job indices by class, deal whole classes to the worker
        with the least estimated load (LPT), largest class first."""
        classes: dict[str, list[int]] = {}
        for idx, job in enumerate(self.jobs):
            classes.setdefault(job_class(job), []).append(idx)
        deques: list[deque[int]] = [deque() for _ in range(self.nworkers)]
        loads = [0.0] * self.nworkers
        est = {cls: self.planner.estimated_job_s(cls) for cls in classes}
        order = sorted(classes,
                       key=lambda c: (-len(classes[c]) * est[c], c))
        for cls in order:
            w = min(range(self.nworkers), key=lambda i: (loads[i], i))
            deques[w].extend(classes[cls])
            loads[w] += len(classes[cls]) * est[cls]
        return deques

    def _next_chunk(self, w: int,
                    deques: "list[deque[int]]") -> "list[int]":
        """The next homogeneous chunk for worker ``w``: from its own
        deque's head, else stolen from the most-loaded deque's tail."""
        own = deques[w]
        if own:
            return self._cut(own, from_head=True)
        victim = max(range(len(deques)),
                     key=lambda i: (len(deques[i]), -i))
        if not deques[victim]:
            return []
        _STEALS.inc()
        return self._cut(deques[victim], from_head=False)

    def _cut(self, dq: "deque[int]", *, from_head: bool) -> "list[int]":
        """Pop up to one chunk of the end's class, preserving homogeneity."""
        peek = dq[0] if from_head else dq[-1]
        cls = job_class(self.jobs[peek])
        limit = self.planner.chunk_size(cls)
        chunk: list[int] = []
        while dq and len(chunk) < limit:
            idx = dq[0] if from_head else dq[-1]
            if job_class(self.jobs[idx]) != cls:
                break
            chunk.append(dq.popleft() if from_head else dq.pop())
        if not from_head:
            chunk.reverse()
        return chunk

    # -- result plumbing -----------------------------------------------------

    def _stats_key(self, idx: int, result: "SweepResult") -> str:
        # The cache key deliberately excludes the engine (it does not
        # change the synthesized design), so two jobs differing only in
        # engine share it; the *stats* dedup key must keep them distinct.
        # Same engine-qualified shape as SweepResult.identity, derived
        # from the job so a result with a blank engine cannot collide.
        return f"{result.key}::{self.jobs[idx].options.engine}"

    def _accept(self, idx: int, result: "SweepResult", *,
                premerged: bool = False) -> None:
        from repro.core.batch import _merge_stats

        self._by_index[idx] = result
        if premerged:
            self._merged.add(self._stats_key(idx, result))
        else:
            _merge_stats(result.stats,
                         job_key=self._stats_key(idx, result),
                         merged=self._merged)
        self.planner.observe(job_class(self.jobs[idx]), result.wall_time)
        if self.tracker is not None:
            self.tracker.job_done(ok=result.ok, cache_hit=result.cache_hit,
                                  label=result.label())
        if self.on_result is not None:
            self.on_result(result)

    # -- the loop ------------------------------------------------------------

    def run(self) -> "list[SweepResult]":
        deques = self._deal_deques()
        in_flight: dict = {}                 # future -> list of indices
        try:
            with ProcessPoolExecutor(max_workers=self.nworkers) as pool:
                def dispatch(w: int) -> None:
                    chunk = self._next_chunk(w, deques)
                    if not chunk:
                        return
                    _CHUNKS.inc()
                    fut = pool.submit(
                        _execute_chunk, [self.jobs[i] for i in chunk],
                        self.cache_root, self.use_cache, TRACER.enabled)
                    in_flight[fut] = (w, chunk)

                for w in range(self.nworkers):
                    dispatch(w)
                while in_flight:
                    done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                    for fut in done:
                        w, chunk = in_flight[fut]
                        # .result() may raise BrokenProcessPool — the
                        # future must stay in ``in_flight`` until its
                        # chunk is accepted, so salvage can retry it.
                        results = fut.result()
                        del in_flight[fut]
                        for idx, result in zip(chunk, results):
                            self._accept(idx, result)
                        dispatch(w)
        except BrokenProcessPool:
            self._salvage_and_retry(in_flight, deques)
        return [self._by_index[i] for i in sorted(self._by_index)]

    def _salvage_and_retry(self, in_flight: dict,
                           deques: "list[deque[int]]") -> None:
        """A worker died.  Keep every result that made it back, then run
        the lost and undispatched jobs serially in-process."""
        from repro.core.batch import _execute_job

        retry: list[int] = []
        for fut, (_, chunk) in in_flight.items():
            results = None
            if fut.done() and not fut.cancelled() \
                    and fut.exception() is None:
                results = fut.result()
            for pos, idx in enumerate(chunk):
                if results is not None and pos < len(results):
                    self._accept(idx, results[pos])
                else:
                    retry.append(idx)
        for dq in deques:
            retry.extend(dq)
            dq.clear()
        retry = [idx for idx in retry if idx not in self._by_index]
        TRACER.count("sweep.worker_retries", len(retry))
        for idx in sorted(retry):
            # Serial fallback accrues stats directly into the caller's
            # registry; pre-mark the key so a salvaged duplicate delta
            # for the same job can never merge on top.
            self._accept(idx, _execute_job(self.jobs[idx], self.cache_root,
                                           self.use_cache),
                         premerged=True)
