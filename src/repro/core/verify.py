"""Independent verification of a synthesized design.

A design passes when *both* of these agree:

1. **Symbolic checks** — condition (1) per module, condition (2)
   conflict-freedom over the enumerated domains, the global timing gaps of
   every link instance, and flow realisability of every dependence;
2. **Physical execution** — the design compiles to microcode (placement +
   routing raise on any causality/locality violation) and the cycle-accurate
   machine, fed only host inputs at the boundary, reproduces the reference
   evaluator's results bit for bit.

The checks are deliberately independent of the solvers: they re-derive
everything from the system and the (T, S) assignments, and share no code
with :mod:`repro.space` — conflict-freedom and flow realisability are
computed here again, straight from the paper's equations (2) and (3).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.core.cache import system_fingerprint
from repro.core.design import Design
from repro.deps.extract import system_dependence_matrices
from repro.ir.evaluate import (
    ExecutionPlan,
    build_execution_plan,
    execute_plan,
    structural_trace,
    trace_execution,
)
from repro.ir.vector import execute_program, lower_plan
from repro.machine.compiled import CompiledMachine, lower
from repro.machine.engines import ENGINES as _ENGINES
from repro.machine.engines import Engine, coerce_engine
from repro.machine.errors import CapacityError
from repro.machine.microcode import compile_design
from repro.machine.native import nativize
from repro.machine.simulator import MachineStats, run
from repro.machine.vector import vectorize
from repro.obs import TRACER

ENGINES = _ENGINES  # historical name; the registry lives in machine.engines


@dataclass
class VerificationReport:
    """Outcome of :func:`verify_design`."""

    schedule_valid: bool = True
    conflict_free: bool = True
    global_gaps_ok: bool = True
    flows_ok: bool = True
    machine_matches_reference: bool = True
    failures: list[str] = field(default_factory=list)
    machine_stats: MachineStats | None = None
    seeds_checked: int = 1

    @property
    def ok(self) -> bool:
        return not self.failures

    def __repr__(self) -> str:
        status = "OK" if self.ok else "FAILED: " + "; ".join(self.failures)
        return f"VerificationReport({status})"


def _stamps_distinct(schedule, space, points: np.ndarray) -> bool:
    """Eq. (2): no two computations share both time ``T x`` and cell
    ``S x``."""
    times = points @ np.array(schedule.coeffs, dtype=np.int64)
    cells = (points @ np.array(space.matrix, dtype=np.int64).T
             + np.array(space.offset, dtype=np.int64))
    stamps = np.column_stack([times, cells]).tolist()
    return len(set(map(tuple, stamps))) == len(stamps)


def _within_hops(moves, target: tuple[int, ...], budget: int) -> bool:
    """Whether ``target`` is a sum of at most ``budget`` link vectors
    (idling fills the remaining cycles)."""
    if budget < 0:
        return False
    reached = {tuple(0 for _ in target)}
    frontier = set(reached)
    for _ in range(budget):
        if target in reached or not frontier:
            break
        frontier = {tuple(a + b for a, b in zip(p, mv))
                    for p in frontier for mv in moves} - reached
        reached |= frontier
    return target in reached


def _flows_reachable(deps, schedule, space, moves) -> bool:
    """Eq. (3): every dependence ``d`` moves its datum ``S d`` cells in
    ``T d`` cycles, at most one link hop per cycle."""
    for d in deps.matrix().T.tolist():
        slack = sum(c * v for c, v in zip(schedule.coeffs, d))
        shift = tuple(sum(c * v for c, v in zip(row, d))
                      for row in space.matrix)
        if not _within_hops(moves, shift, slack):
            return False
    return True


def _symbolic_checks(design: Design, report: VerificationReport) -> None:
    """Conditions (1)–(3) and the global gaps — value-independent."""
    deps = system_dependence_matrices(design.system)
    moves = design.interconnect.moves()
    for name in design.system.modules:
        sched = design.schedules[name]
        smap = design.space_maps[name]
        if not sched.satisfies(deps[name]):
            report.schedule_valid = False
            report.failures.append(
                f"module {name}: T violates condition (1) on "
                f"{sched.violated(deps[name])}")
        if not _stamps_distinct(sched, smap, design.module_points(name)):
            report.conflict_free = False
            report.failures.append(
                f"module {name}: two computations share (time, cell)")
        if len(deps[name]) and not _flows_reachable(
                deps[name], sched, smap, moves):
            report.flows_ok = False
            report.failures.append(
                f"module {name}: some dependence flow is not realisable")

    for gc in design.constraints:
        dst_t = design.schedules[gc.dst_module].times(gc.dst_points)
        src_t = design.schedules[gc.src_module].times(gc.src_points)
        if not gc.timing_ok(dst_t, src_t):
            report.global_gaps_ok = False
            report.failures.append(
                f"global constraint {gc.name}: gap below {gc.min_gap}")


def _annotate_machine(stats: MachineStats) -> None:
    """Attach the machine's headline numbers to the active tracer span so a
    recorded run carries them without any caller plumbing."""
    TRACER.annotate(cycles=stats.cycles, cells=stats.cells_used,
                   operations=stats.operations, hops=stats.hops,
                   utilization=round(stats.utilization, 3))


def _check_results(report: VerificationReport, machine_results: Mapping,
                   reference_results: Mapping, prefix: str) -> None:
    if machine_results != reference_results:
        report.machine_matches_reference = False
        diffs = [k for k in reference_results
                 if machine_results.get(k) != reference_results[k]]
        report.failures.append(
            f"{prefix}machine results differ from reference at {diffs[:5]}")


def _execution_plan(design: Design) -> ExecutionPlan:
    """The design's cached execution plan, built on first use."""
    cache = design._exec_cache
    plan = cache.get("plan")
    if plan is None:
        plan = cache["plan"] = build_execution_plan(design.system,
                                                    design.params)
    return plan


def lowered_machine(design: Design) -> CompiledMachine:
    """The design's lowered machine, cached on the design.

    The microcode comes from the cache when synthesis seeded it, and is
    compiled on a value-free trace of the cached plan otherwise; once
    lowered, it is dropped from the cache.  Raises the
    :class:`~repro.machine.errors.MachineError` of a design that does not
    compile or lower."""
    cache = design._exec_cache
    lowered = cache.get("machine")
    if lowered is None:
        trace = structural_trace(design.system, design.params,
                                 _execution_plan(design))
        mc = cache.pop("microcode", None)
        if mc is None:
            mc = compile_design(trace, design.schedules, design.space_maps,
                                design.interconnect.decomposer())
        with TRACER.span("verify.lower"):
            lowered = cache["machine"] = lower(mc, trace)
    return lowered


def _verify_looped(design: Design, report: VerificationReport, decomposer,
                   cache, input_sets, prefixes, strict_capacity: bool,
                   engine: str) -> None:
    """One reference + machine value pass per input set (the compiled and
    interpreted engines)."""
    for prefix, inputs in zip(prefixes, input_sets):
        with TRACER.span("verify.reference"):
            if cache is not None:
                trace = execute_plan(_execution_plan(design), inputs)
            else:
                trace = trace_execution(design.system, design.params, inputs)
        try:
            if cache is not None:
                with TRACER.span("verify.compile"):
                    lowered = lowered_machine(design)
                with TRACER.span("verify.machine"):
                    machine = lowered.execute(inputs, strict=strict_capacity,
                                              want_values=False)
                    _annotate_machine(machine.stats)
            else:
                with TRACER.span("verify.compile"):
                    mc = compile_design(trace, design.schedules,
                                        design.space_maps, decomposer)
                with TRACER.span("verify.machine"):
                    machine = run(mc, trace, inputs, strict=strict_capacity,
                                  engine=engine)
                    _annotate_machine(machine.stats)
        except Exception as exc:  # machine errors are design failures
            report.machine_matches_reference = False
            report.failures.append(
                f"{prefix}machine: {type(exc).__name__}: {exc}")
            return
        if report.machine_stats is None:
            report.machine_stats = machine.stats
        _check_results(report, machine.results, trace.results, prefix)


def design_token(design: Design) -> str:
    """Stable content identity of a design for artifact caching.

    Canonical JSON over the *structural fingerprint* of the recurrence
    system (:func:`repro.core.cache.system_fingerprint` — two same-named
    systems with different equations must not collide) plus the design's
    own serialisation.  The native engine keys its compiled shared
    objects on this, which is what lets a warm ``verify_design(...,
    engine="native")`` skip both codegen and the C compiler.
    """
    return json.dumps(
        {"system": system_fingerprint(design.system),
         "design": design.to_dict()},
        sort_keys=True, separators=(",", ":"))


def _verify_batched(design: Design, report: VerificationReport,
                    cache, input_sets, prefixes,
                    strict_capacity: bool, engine: str) -> None:
    """All input sets through one batched value pass, reference and
    machine alike (the vector and native engines); per-seed mismatches
    are reported with their prefix.

    Only the output columns are compared — no per-seed trace or result
    dict is materialized, so the whole batch costs two kernel passes plus
    one array comparison.  ``engine="native"`` runs the machine pass
    through the design-keyed compiled C kernel
    (:func:`repro.machine.native.nativize`) and degrades to the vector
    pass wherever the native kernel cannot run."""
    if not input_sets:
        return
    with TRACER.span("verify.reference"):
        plan = _execution_plan(design)
        vplan = cache.get("vplan")
        if vplan is None:
            vplan = cache["vplan"] = lower_plan(plan)
        ref_matrix = execute_program(vplan, input_sets)
    try:
        with TRACER.span("verify.compile"):
            slot = "nmachine" if engine == "native" else "vmachine"
            vmachine = cache.get(slot)
            if vmachine is None:
                lowered = lowered_machine(design)
                if engine == "native":
                    vmachine = cache[slot] = nativize(
                        lowered, cache_token=design_token(design))
                else:
                    vmachine = cache[slot] = vectorize(lowered)
        with TRACER.span("verify.machine"):
            compiled = vmachine.compiled
            if strict_capacity and compiled.strict_error is not None:
                raise CapacityError(compiled.strict_error)
            mach_matrix = vmachine.execute_batch(input_sets)
            stats = compiled.copy_stats()
            _annotate_machine(stats)
    except Exception as exc:  # machine errors are design failures
        report.machine_matches_reference = False
        report.failures.append(
            f"{prefixes[0]}machine: {type(exc).__name__}: {exc}")
        return
    report.machine_stats = stats
    mach_by_key = dict(compiled.outputs)
    pairs = [(host_key, nid, mach_by_key[host_key])
             for host_key, nid in plan.outputs]
    eq = (ref_matrix[:, [nid for _, nid, _ in pairs]]
          == mach_matrix[:, [vid for _, _, vid in pairs]])
    for s, prefix in enumerate(prefixes):
        if bool(np.all(eq[s])):
            continue
        report.machine_matches_reference = False
        diffs = [host_key
                 for (host_key, _, _), ok in zip(pairs, eq[s]) if not ok]
        report.failures.append(
            f"{prefix}machine results differ from reference at {diffs[:5]}")


def verify_design(design: Design, inputs,
                  strict_capacity: bool = True,
                  engine: "Engine | str" = "compiled",
                  seeds=None) -> VerificationReport:
    """Run all symbolic and physical checks; never raises on a *design*
    failure (the report carries it), only on infrastructure errors.

    ``engine="compiled"`` (default) evaluates the reference trace through a
    precomputed execution plan and runs the machine through the lowered
    integer-indexed program; every value-independent artifact (the plan, the
    microcode, the lowered machine, the symbolic-check outcome) is cached on
    the design, so repeated verification — sweeps cross-checking many input
    seeds — only redoes the value passes.  A design fresh from
    :func:`~repro.core.nonuniform.synthesize` arrives with the plan and the
    microcode already cached (the ``lower-microcode`` pass stores the ones
    its compile check built), so even its first verification neither
    rebuilds the plan nor recompiles the microcode.
    ``engine="interpreted"`` is the from-scratch oracle: recursive-free
    reference evaluation plus the cycle-by-cycle simulator, nothing cached.
    ``engine="vector"``
    additionally lowers the cached plan and machine table to level-grouped
    ndarray kernels (:mod:`repro.ir.vector`), so each value pass is a
    handful of array operations instead of one Python iteration per node.
    ``engine="native"`` compiles those kernel groups to a per-design C
    kernel (:mod:`repro.machine.native`) keyed by :func:`design_token` in
    a persistent shared-object cache — a warm verification skips both
    codegen and the C compiler — and degrades to the vector paths when no
    toolchain is present or inputs leave exact int64 range.

    ``seeds`` turns one verification into a multi-seed cross-check: pass a
    sequence of seeds and make ``inputs`` a factory ``seed -> input
    mapping``.  Every seed's machine results are compared to its own
    reference run; failures are prefixed with the offending seed.  The
    vector engine runs *all* seeds through a single batched kernel pass on
    ``(seeds, nodes)`` arrays — multi-seed verification at roughly the cost
    of one execution; the other engines loop.
    """
    engine = coerce_engine(engine)
    report = VerificationReport()
    decomposer = design.interconnect.decomposer()
    cache = design._exec_cache if engine != "interpreted" else None

    with TRACER.span("verify.symbolic"):
        if cache is not None and "symbolic" in cache:
            flags, failures = cache["symbolic"]
            (report.schedule_valid, report.conflict_free,
             report.global_gaps_ok, report.flows_ok) = flags
            report.failures.extend(failures)
        else:
            _symbolic_checks(design, report)
            if cache is not None:
                cache["symbolic"] = (
                    (report.schedule_valid, report.conflict_free,
                     report.global_gaps_ok, report.flows_ok),
                    list(report.failures))

    # Physical execution against the reference evaluator.
    if seeds is None:
        input_sets = [inputs]
        prefixes = [""]
    else:
        if not callable(inputs):
            raise TypeError(
                "with seeds=..., 'inputs' must be a factory callable "
                "mapping a seed to an input binding")
        seeds = list(seeds)
        if not seeds:
            raise ValueError(
                "seeds=[] would check nothing and report ok; pass seeds=None "
                "for a single-input verification or a non-empty sequence")
        input_sets = [inputs(s) for s in seeds]
        prefixes = [f"seed {s}: " for s in seeds]
        report.seeds_checked = len(seeds)

    if engine in ("vector", "native"):
        _verify_batched(design, report, cache, input_sets, prefixes,
                        strict_capacity, engine)
    else:
        _verify_looped(design, report, decomposer, cache, input_sets,
                       prefixes, strict_capacity, engine)
    return report
