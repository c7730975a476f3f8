"""The work-stealing sweep scheduler: chunk planning, dealing, stealing,
and the engine-aware stats dedup key."""

import pytest

from repro.core import SchedulerConfig, SweepSpec, SynthesisOptions, run_sweep
from repro.core.scheduler import (
    ChunkPlanner,
    WorkStealingScheduler,
    job_class,
)
from repro.obs import TRACER
from repro.obs.telemetry import MetricsRegistry
from repro.report import sweep_table

GRID = SweepSpec(
    problems=("dp", "conv-backward"),
    interconnects=("fig1", "linear"),
    param_grid=({"n": 5, "s": 3}, {"n": 6, "s": 3}, {"n": 7, "s": 3}),
)


class TestChunkPlanner:
    def test_defaults_to_probe_chunks_without_telemetry(self):
        planner = ChunkPlanner(registry=MetricsRegistry())
        # default_job_s == target_chunk_s, so a cold class probes 1 at
        # a time until real latencies arrive.
        assert planner.chunk_size("dp/compiled") == 1

    def test_grows_chunks_for_fast_classes(self):
        reg = MetricsRegistry()
        planner = ChunkPlanner(registry=reg)
        for _ in range(20):
            planner.observe("dp/compiled", 0.005)
        assert planner.chunk_size("dp/compiled") == \
            int(0.25 / planner.estimated_job_s("dp/compiled"))
        assert planner.chunk_size("dp/compiled") >= 40

    def test_clamps_to_max_chunk(self):
        reg = MetricsRegistry()
        planner = ChunkPlanner(SchedulerConfig(max_chunk=8), registry=reg)
        for _ in range(20):
            planner.observe("fast/vector", 1e-5)
        assert planner.chunk_size("fast/vector") == 8

    def test_clamps_to_min_chunk_for_slow_classes(self):
        reg = MetricsRegistry()
        planner = ChunkPlanner(SchedulerConfig(min_chunk=2), registry=reg)
        for _ in range(5):
            planner.observe("slow/compiled", 60.0)
        assert planner.chunk_size("slow/compiled") == 2

    def test_estimate_isolated_per_class(self):
        reg = MetricsRegistry()
        planner = ChunkPlanner(registry=reg)
        planner.observe("a/compiled", 0.001)
        assert planner.estimated_job_s("b/compiled") == \
            planner.config.default_job_s


class TestDealingAndStealing:
    def _scheduler(self, jobs, nworkers, config=None):
        return WorkStealingScheduler(jobs, nworkers, None, False,
                                     config=config)

    def test_deques_hold_whole_classes(self):
        jobs = GRID.jobs()
        sched = self._scheduler(jobs, 3)
        deques = sched._deal_deques()
        assert sum(len(dq) for dq in deques) == len(jobs)
        for dq in deques:
            # A class never splits across deques at deal time.
            classes = [job_class(jobs[i]) for i in dq]
            for cls in set(classes):
                everywhere = [i for i, job in enumerate(jobs)
                              if job_class(job) == cls]
                assert [i for i in dq
                        if job_class(jobs[i]) == cls] == everywhere

    def test_chunks_are_homogeneous(self):
        jobs = GRID.jobs()
        sched = self._scheduler(jobs, 2)
        deques = sched._deal_deques()
        seen = []
        while True:
            chunk = sched._next_chunk(0, deques)
            if not chunk:
                break
            assert len({job_class(jobs[i]) for i in chunk}) == 1
            seen.extend(chunk)
        assert sorted(seen) == list(range(len(jobs)))

    def test_idle_worker_steals_from_most_loaded(self):
        jobs = GRID.jobs()
        sched = self._scheduler(jobs, 2)
        deques = sched._deal_deques()
        # Drain worker 0's own deque, then its next chunk must come off
        # worker 1's tail.
        while deques[0]:
            sched._next_chunk(0, deques)
        before = TRACER.metrics.counter("sweep.steals").value
        victim_tail = deques[1][-1]
        chunk = sched._next_chunk(0, deques)
        assert victim_tail in chunk
        assert TRACER.metrics.counter("sweep.steals").value == before + 1

    def test_steal_preserves_homogeneity_at_the_tail(self):
        jobs = GRID.jobs()
        sched = self._scheduler(jobs, 1)
        deques = sched._deal_deques()
        tail_cls = job_class(jobs[deques[0][-1]])
        chunk = sched._cut(deques[0], from_head=False)
        assert all(job_class(jobs[i]) == tail_cls for i in chunk)
        # Tail cuts come back in original deque order.
        assert chunk == sorted(chunk)


class TestSchedulerExecution:
    def test_matches_serial_results(self, tmp_path):
        serial = run_sweep(GRID, workers=0, use_cache=False,
                           cross_check=False)
        pooled = run_sweep(GRID, workers=3, use_cache=False,
                           cross_check=False)
        assert sweep_table(pooled.results) == sweep_table(serial.results)

    def test_custom_config_reaches_the_planner(self, tmp_path):
        cfg = SchedulerConfig(target_chunk_s=1.0, max_chunk=4)
        jobs = GRID.jobs()
        sched = WorkStealingScheduler(jobs, 2, None, False, config=cfg)
        assert sched.planner.config.max_chunk == 4
        report = run_sweep(GRID, workers=2, use_cache=False,
                           cross_check=False, scheduler=cfg)
        assert len(report.results) == len(jobs)

    def test_counts_chunks(self):
        before = TRACER.metrics.counter("sweep.chunks").value
        run_sweep(GRID, workers=2, use_cache=False, cross_check=False)
        assert TRACER.metrics.counter("sweep.chunks").value > before


class TestEngineStatsDedup:
    def test_same_params_two_engines_merge_twice(self):
        """Regression: the cache key excludes the engine, so two jobs
        differing only in engine share it — the stats dedup key must
        still treat them as distinct jobs."""
        compiled = SweepSpec(problems=("dp",), interconnects=("fig1",),
                             param_grid=({"n": 5},),
                             options=SynthesisOptions(engine="compiled"),
                             verify_seeds=2)
        vector = SweepSpec(problems=("dp",), interconnects=("fig1",),
                           param_grid=({"n": 5},),
                           options=SynthesisOptions(engine="vector"),
                           verify_seeds=2)
        jobs = compiled.jobs() + vector.jobs()
        sched = WorkStealingScheduler(jobs, 2, None, False)
        results = sched.run()
        assert len(results) == 2
        assert results[0].key == results[1].key
        keys = {sched._stats_key(i, r) for i, r in enumerate(results)}
        assert len(keys) == 2               # engine kept them distinct
        assert len(sched._merged) == 2      # both deltas merged, no dedup
