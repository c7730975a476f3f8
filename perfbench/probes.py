"""Spans around calls into each layer, and the per-layer metrics.

The traced run replaces a fixed set of layer entry points with wrappers
that open a span around the call (``installed``); nothing in the program
changes.  Functions are wrapped in the namespace of their caller — e.g.
``repro.core.verify.compile_design`` — so a span marks a call from one
layer into the next.  Counters are read from ``api.TRACER``, which sweep
workers already merge into the parent; none are added.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro import api
from repro.core import batch, cache, scheduler, verify
from repro.core import globals as globals_
from repro.machine import compiled, native, vector
from repro.rewrite import pipeline

from perfbench.spans import Recorder, Span, self_times
from perfbench.stats import LoopResult
from perfbench.workloads import NATIVE_FALLBACKS

#: Pipeline pass -> span name.
PASS_SPANS = {
    "decompose-chains": "chains.decompose",
    "fuse-accumulators": "rewrite.fuse",
    "schedule": "schedule.solve",
    "allocate": "space.allocate",
    "lower-microcode": "machine.microcode",
}


def _targets() -> list[tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped entry point."""
    out = [(pipeline.PASS_REGISTRY[p], "run", span)
           for p, span in PASS_SPANS.items()]
    out += [(api, "synthesize", "core.synthesize"),
            (batch, "synthesize", "core.synthesize"),
            (api, "verify_design", "core.verify"),
            (api, "run_sweep", "core.sweep")]
    out += [(verify, name, "ir.reference")
            for name in ("build_execution_plan", "execute_plan",
                         "trace_execution", "execute_program")]
    out += [(verify, "lower_plan", "ir.vector_lower"),
            (verify, "compile_design", "machine.compile"),
            (verify, "lower", "machine.lower.compiled"),
            (verify, "vectorize", "machine.lower.vector"),
            (native, "vectorize", "machine.lower.vector"),
            (compiled.CompiledMachine, "execute", "machine.exec.compiled"),
            (vector.VectorMachine, "execute_batch", "machine.exec.vector"),
            (native.NativeMachine, "execute_batch", "machine.exec.native")]
    out += [(batch, name, "cache.key")
            for name in ("system_fingerprint", "cache_key_from_fingerprint",
                         "cache_key")]
    out += [(cache.DesignCache, "load", "cache.load"),
            (cache.DesignCache, "store", "cache.store"),
            (batch.SweepSpec, "jobs", "batch.expand"),
            (scheduler.WorkStealingScheduler, "run", "scheduler.run"),
            (globals_, "link_constraints", "core.constraints")]
    return out


def _wrap(fn, name: str, rec: Recorder):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _wrap_codegen(fn, rec: Recorder):
    """``load_or_build``: a build (emit + cc + load) when it compiled,
    otherwise a load of a cached artifact."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = api.TRACER.counters.get("native.compiles", 0)
        with rec.span("codegen.load") as span:
            try:
                return fn(*args, **kwargs)
            finally:
                if api.TRACER.counters.get("native.compiles", 0) != before:
                    span.name = "codegen.build"
    return wrapper


def _wrap_job(fn, rec: Recorder, spool: Path):
    """A sweep job; in a forked worker its spans go to the spool."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        mark = len(rec.spans)
        try:
            with rec.span("sweep.job"):
                return fn(*args, **kwargs)
        finally:
            if os.getpid() != rec.pid:
                rec.spool(spool, mark)
    return wrapper


@contextmanager
def installed(rec: Recorder, spool: Path) -> Iterator[None]:
    """Wrap every layer entry point for the duration of the block."""
    plan = [(owner, attr, _wrap(getattr(owner, attr), name, rec))
            for owner, attr, name in _targets()]
    plan += [
        (native, "load_or_build", _wrap_codegen(native.load_or_build, rec)),
        (batch, "_execute_job", _wrap_job(batch._execute_job, rec, spool)),
    ]
    saved = [(owner, attr, owner.__dict__.get(attr))
             for owner, attr, _ in plan]
    for owner, attr, wrapper in plan:
        setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            if original is None:
                delattr(owner, attr)      # was inherited from a base class
            else:
                setattr(owner, attr, original)


#: Per-layer metric -> span names whose self time it sums (seconds per op).
LAYER_TIMES = {
    "chains.decompose_s": ("chains.decompose",),
    "rewrite.fuse_s": ("rewrite.fuse",),
    "schedule.solve_s": ("schedule.solve",),
    "space.allocate_s": ("space.allocate",),
    "machine.microcode_s": ("machine.microcode",),
    "core.synthesize_s": ("core.synthesize",),
    "core.constraints_s": ("core.constraints",),
    "ir.reference_s": ("ir.reference",),
    "ir.vector_lower_s": ("ir.vector_lower",),
    "machine.compile_s": ("machine.compile",),
    "machine.lower_s.compiled": ("machine.lower.compiled",),
    "machine.lower_s.vector": ("machine.lower.vector",),
    "machine.exec_s.compiled": ("machine.exec.compiled",),
    "machine.exec_s.vector": ("machine.exec.vector",),
    "machine.exec_s.native": ("machine.exec.native",),
    "codegen.build_s": ("codegen.build",),
    "codegen.load_s": ("codegen.load",),
    "cache.key_s": ("cache.key",),
    "cache.load_s": ("cache.load",),
    "cache.store_s": ("cache.store",),
    "batch.expand_s": ("batch.expand",),
    "core.sweep_s": ("core.sweep",),
    # scheduler wall time in which no job runs in any worker: the jobs run
    # side by side, so the union of their intervals is subtracted, not
    # their sum
    "scheduler.overhead_s": ("scheduler.run",),
}

#: Per-layer metric -> the ``api.TRACER`` counter it reports per op.
LAYER_COUNTS = {
    "space.assignments_examined": "space.assignments_examined",
    "space.adjacency_cache_hits": "space.adjacency_cache_hits",
    "solver.candidates_examined": "solver.candidates_examined",
    "native.compiles": "native.compiles",
    "native.cache_hits": "native.cache_hits",
    "sweep.chunks": "sweep.chunks",
    "sweep.steals": "sweep.steals",
    "sweep.manifest_recorded": "sweep.manifest_recorded",
}

LAYER_OTHER = {
    "space.allocate_share": "ratio",
    "core.verify_s": "s/op",
    "cache.hit_ratio": "ratio",
    "native.fallback_ratio": "ratio",
    "bench.unattributed_share": "ratio",
    "obs.tracing_overhead": "ratio",
}


def units() -> dict[str, str]:
    """Every per-layer metric with its unit."""
    out = {name: "s/op" for name in LAYER_TIMES}
    out.update({name: "count/op" for name in LAYER_COUNTS})
    out.update(LAYER_OTHER)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], counters: dict[str, int],
                  traced: LoopResult, untraced: LoopResult) -> dict:
    """Per-layer metrics of one traced loop.  ``counters`` holds the
    counter deltas over that loop; ``untraced`` is the same loop run
    without wrappers, for the tracing overhead.  Times are divided by the
    traced loop's host factor, as the end-to-end times are."""
    # a summed time over this is seconds per op at a quiet host's speed
    time_base = traced.attempted * traced.host_factor
    own = self_times(spans)
    by_name: dict[str, float] = {}
    for span in spans:
        by_name[span.name] = by_name.get(span.name, 0.0) + own[span.id]
    op_spans = [s for s in spans if s.name == "op"]
    op_wall = sum(s.duration for s in op_spans)
    out = {metric: sum(by_name.get(n, 0.0) for n in names) / time_base
           for metric, names in LAYER_TIMES.items()}
    out.update({metric: counters.get(name, 0) / traced.attempted
                for metric, name in LAYER_COUNTS.items()})
    out["space.allocate_share"] = _ratio(by_name.get("space.allocate", 0.0),
                                         op_wall)
    out["core.verify_s"] = sum(s.duration for s in spans
                               if s.name == "core.verify") / time_base
    hits = counters.get("cache.hits", 0)
    out["cache.hit_ratio"] = _ratio(hits, hits + counters.get("cache.misses",
                                                              0))
    out["native.fallback_ratio"] = _ratio(
        sum(counters.get(n, 0) for n in NATIVE_FALLBACKS),
        sum(1 for s in spans if s.name == "machine.exec.native"))
    out["bench.unattributed_share"] = _ratio(
        sum(own[s.id] for s in op_spans), op_wall)
    out["obs.tracing_overhead"] = _ratio(
        untraced.ops_per_s * untraced.host_factor,
        traced.ops_per_s * traced.host_factor)
    return out
