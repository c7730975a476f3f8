"""The three workloads.  Each runs as a closed loop with one client; what
one op does is defined per workload below and in ``README.md``.

A workload's ``items()`` is an endless seeded stream of ops dealt in decks:
every deck holds the same multiset of ops for every seed, shuffled by the
seed, so runs with different seeds do the same work in a different order on
different input instances.
"""

from __future__ import annotations

import os
import random
from pathlib import Path
from typing import Iterator

from repro import api
from repro.core import globals as globals_

from perfbench import catalog
from perfbench.catalog import Job
from perfbench.stats import OpFailure

#: Sweep worker processes; the host has 2 cores and the benchmark itself
#: starts no threads.
WORKERS = 2


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path,
                 expected: "dict[str, dict] | None" = None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.expected = (catalog.load_expected() if expected is None
                         else expected)
        self.deck_len = 1

    def setup(self) -> None:
        """Input generation, priming and one untimed warm-up op."""

    def begin_loop(self) -> None:
        """Reset per-loop state before a timed loop."""

    def items(self) -> Iterator:
        raise NotImplementedError

    def run_op(self, item) -> int:
        """One op; returns the input instances it verified."""
        raise NotImplementedError

    def after_op(self, item) -> None:
        """Untimed cleanup after an op."""


class SynthCold(Workload):
    """``api.synthesize`` on a freshly built system, then one compiled-engine
    verification of a seeded instance; no design cache."""

    name = "synth_cold"
    WARMUP = Job.of("dp", "fig1", {"n": 8})

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.jobs = catalog.synth_jobs()
        self.deck_len = len(self.jobs)

    def setup(self) -> None:
        self.run_op((self.WARMUP, 0))

    def items(self) -> Iterator:
        rng = random.Random(self.seed)
        while True:
            deck = list(self.jobs)
            rng.shuffle(deck)
            for job in deck:
                yield job, rng.randrange(2 ** 31)

    def run_op(self, item) -> int:
        job, instance = item
        try:
            design = api.synthesize(job.system(), job.params_dict,
                                    api.resolve_interconnect(job.interconnect))
        except api.SynthesisError as exc:
            catalog.check(self.expected, job, type(exc).__name__, None)
            return 0
        catalog.check(self.expected, job, "ok", design.to_dict())
        report = api.verify_design(
            design, api.random_inputs(job.problem, job.params_dict, instance),
            engine="compiled")
        if not report.ok:
            raise OpFailure(f"{job.id}: verification failed: "
                            f"{report.failures[:2]}")
        return 1


#: Counters the native engine bumps when it runs on the vector path.
NATIVE_FALLBACKS = ("native.fallback_builds", "native.vector_fallbacks",
                    "native.input_fallbacks", "native.overflow_fallbacks")


def fallback_count() -> int:
    return sum(api.TRACER.counters.get(name, 0) for name in NATIVE_FALLBACKS)


class VerifyEngines(Workload):
    """Designs are solved in setup; each op deserializes a fresh design (so
    its execution cache is empty) and verifies it on ``SEEDS`` seeded
    instances, the engine rotating over compiled, vector and native."""

    name = "verify_engines"
    ENGINES = ("compiled", "vector", "native")
    SEEDS = 8

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.jobs = catalog.verify_jobs()
        self.deck_len = len(self.jobs) * len(self.ENGINES)
        self.loops = 0

    def setup(self) -> None:
        self.designs = []
        for job in self.jobs:
            system = job.system()
            design = api.synthesize(system, job.params_dict,
                                    api.resolve_interconnect(job.interconnect))
            payload = design.to_dict()
            catalog.check(self.expected, job, "ok", payload)
            self.designs.append((job, system, payload))
        self.native = api.native_available()
        # Warm every engine's first-call paths; the artifacts this builds
        # stay in the set-up cache root, not in the loops'.
        for engine in self.ENGINES:
            self.run_op((0, engine, list(range(self.SEEDS))))

    def begin_loop(self) -> None:
        # Native artifacts live under the design cache root, which the
        # engine reads per call: point it at an empty directory so each
        # design's first native op pays emit + cc.
        self.loops += 1
        root = self.workdir / f"artifacts-{self.loops}"
        root.mkdir()
        os.environ[api.CACHE_ENV_VAR] = str(root)

    def items(self) -> Iterator:
        rng = random.Random(self.seed)
        deck = [(d, e) for d in range(len(self.jobs)) for e in self.ENGINES]
        while True:
            rng.shuffle(deck)
            for d, engine in deck:
                yield d, engine, [rng.randrange(2 ** 31)
                                  for _ in range(self.SEEDS)]

    def run_op(self, item) -> int:
        index, engine, seeds = item
        job, system, payload = self.designs[index]
        design = api.Design.from_dict(payload, system)
        design.constraints = globals_.link_constraints(system, design.params)
        fallbacks = fallback_count()
        report = api.verify_design(
            design, api.input_factory(job.problem, job.params_dict),
            engine=engine, seeds=seeds)
        if not report.ok or report.seeds_checked != len(seeds):
            raise OpFailure(f"{job.id} on {engine}: verification failed: "
                            f"{report.failures[:2]}")
        if engine == "native" and self.native and fallback_count() != fallbacks:
            raise OpFailure(f"{job.id}: native fell back to the vector "
                            "engine although a C toolchain is present")
        return len(seeds)


class SweepWarm(Workload):
    """Setup primes a fresh cache with the grid; each op is one
    ``run_sweep`` over the grid plus ``MISSES`` seeded cheap bindings that
    miss, are solved by the workers and are written.  The misses are
    deleted from the cache after the op, so every op misses the same
    number."""

    name = "sweep_warm"
    MISSES = 4

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.pool = catalog.miss_pool()

    def setup(self) -> None:
        self.cache_dir = self.workdir / "sweep-cache"
        self.manifest = self.workdir / "manifest.jsonl"
        fingerprints = {p: api.system_fingerprint(api.PROBLEM_BUILDERS[p][0]())
                        for p in {job.problem for job in self.pool}}
        self.keys = {
            job.id: api.cache_key_from_fingerprint(
                fingerprints[job.problem], job.params_dict,
                api.resolve_interconnect(job.interconnect),
                api.SynthesisOptions())
            for job in self.pool}
        self.grid_size = len(catalog.grid_jobs())
        report = api.run_sweep(
            [j for spec in catalog.SWEEP_GRID for j in spec.jobs()],
            workers=WORKERS, cache_dir=self.cache_dir, cross_check=False)
        self.check(report, misses=())
        warmup = self.pool[:self.MISSES]
        self.run_op(warmup)
        self.after_op(warmup)

    def items(self) -> Iterator:
        rng = random.Random(self.seed)
        while True:
            yield rng.sample(self.pool, self.MISSES)

    def run_op(self, misses) -> int:
        jobs = [j for spec in catalog.SWEEP_GRID for j in spec.jobs()]
        jobs += [j for job in misses for j in job.spec().jobs()]
        report = api.run_sweep(jobs, workers=WORKERS,
                               cache_dir=self.cache_dir, cross_check=True,
                               manifest=self.manifest)
        self.check(report, misses)
        if not (report.cross_check or "").startswith("ok"):
            raise OpFailure(f"cross-check: {report.cross_check}")
        return 0

    def check(self, report: api.SweepReport, misses) -> None:
        miss_ids = {job.id for job in misses}
        if len(report.results) != self.grid_size + len(miss_ids):
            raise OpFailure(f"{len(report.results)} results for "
                            f"{self.grid_size + len(miss_ids)} jobs")
        for r in report.results:
            job = Job.of(r.problem, r.interconnect, r.params)
            catalog.check(self.expected, job,
                          "ok" if r.ok else r.error_type, r.design_payload)
            if miss_ids and r.cache_hit == (job.id in miss_ids):
                raise OpFailure(f"{job.id}: cache_hit={r.cache_hit}")

    def after_op(self, misses) -> None:
        cache = api.DesignCache(self.cache_dir)
        for job in misses:
            cache.path_for(self.keys[job.id]).unlink(missing_ok=True)
        self.manifest.unlink(missing_ok=True)


WORKLOADS = {cls.name: cls for cls in (SynthCold, VerifyEngines, SweepWarm)}
