"""The default lowering, as named passes over :class:`PipelineState`.

The historical one-shot ``synthesize`` body is re-expressed as:

1. ``decompose-chains`` — ingest: restructure a
   :class:`~repro.ir.program.HighLevelSpec` into the system of mutually
   dependent recurrences (chain decomposition + coarse timing), or accept
   an already-canonic :class:`~repro.ir.program.RecurrenceSystem`.
2. ``fuse-accumulators`` — rewrite attaching composed exact int64
   kernels to accumulator composites (vector-engine fast path); replaces
   the fused-kernel wiring the restructurer used to hard-code.
3. ``schedule`` — per-module dependence matrices, global link
   constraints, joint linear time functions (with the paper's offset
   escalation), normalised to start at cycle 0.
4. ``allocate`` — joint space maps under flow realisability,
   conflict-freedom and adjacency, with plan escalation; every candidate
   that could win is compile-checked on a value-free trace (link
   bandwidth is outside the solvers' model), and that trace's execution
   plan and the winning candidate's microcode skeleton are kept on the
   state.
5. ``lower-microcode`` — package the :class:`~repro.core.design.Design`
   and guarantee the cell program exists (compiling it if a custom
   pipeline skipped the allocate-time check); the plan and the microcode
   seed the design's execution cache, so verifying a freshly synthesized
   design neither rebuilds the plan nor recompiles the microcode.

``cse`` (cross-chain common-subexpression elimination) is available from
the registry but *not* part of :func:`default_pipeline`: merging duplicate
carrier chains changes the synthesized design, which callers opt into via
``default_pipeline().with_pass(make_pass("cse"), after="fuse-accumulators")``.
``lower-native`` is likewise registry-only: it pre-builds the design's
native C kernel (``engine="native"``) through the content-addressed
artifact cache so later verification starts warm — a deployment step, not
part of the synthesis contract, and a no-op fallback without a C
toolchain.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.design import Design
from repro.core.globals import link_constraints
from repro.core.restructure import restructure
from repro.deps.extract import system_dependence_matrices
from repro.ir.evaluate import build_execution_plan, structural_trace
from repro.ir.program import HighLevelSpec, RecurrenceSystem
from repro.machine.errors import MachineError
from repro.machine.microcode import compile_design
from repro.obs import TRACER
from repro.rewrite.passes import Pass, PassError, PassPipeline, PipelineState
from repro.rewrite.patterns import cross_chain_cse, fuse_accumulator_kernels
from repro.schedule.multimodule import (
    ModuleSchedulingProblem,
    normalise_start,
    solve_multimodule,
)
from repro.schedule.solver import NoScheduleExists
from repro.space.multimodule import (
    JointSpaceSearch,
    ModuleSpaceProblem,
    NoSpaceMapExists,
)


class DecomposeChainsPass(Pass):
    name = "decompose-chains"
    description = ("restructure a high-level spec into mutually dependent "
                   "chain recurrences (no-op for canonic systems)")

    def run(self, state: PipelineState) -> PipelineState:
        if state.system is None:
            if state.spec is None:
                raise PassError(
                    "state has neither a spec nor a system; pass one of "
                    "them to the pipeline entry point")
            state = state.replace(
                system=restructure(state.spec, params=dict(state.params)))
        return state


class FuseAccumulatorsPass(Pass):
    name = "fuse-accumulators"
    description = ("attach composed exact int64 kernels to accumulator "
                   "composites (vector-engine fast path; values and event "
                   "streams unchanged)")

    def run(self, state: PipelineState) -> PipelineState:
        system, _ = fuse_accumulator_kernels(
            state.require("system", "decompose-chains"))
        return state.replace(system=system)


class CrossChainCSEPass(Pass):
    name = "cse"
    description = ("merge structurally identical equations within each "
                   "module and redirect references (changes the design; "
                   "opt-in)")

    def run(self, state: PipelineState) -> PipelineState:
        system, _ = cross_chain_cse(
            state.require("system", "decompose-chains"))
        return state.replace(system=system)


class SchedulePass(Pass):
    name = "schedule"
    description = ("extract dependence matrices and link constraints, "
                   "jointly solve linear time functions (offset escalation "
                   "on demand), normalise start to cycle 0")

    def run(self, state: PipelineState) -> PipelineState:
        system: RecurrenceSystem = state.require("system", "decompose-chains")
        opts = state.options
        params = dict(state.params)
        with TRACER.span("schedule.deps"):
            deps = system_dependence_matrices(system)
        with TRACER.span("schedule.constraints"):
            constraints = link_constraints(system, params)

        problems = []
        with TRACER.span("synthesize.enumerate"):
            for name, module in system.modules.items():
                arr = module.domain.points_array(params)
                problems.append(ModuleSchedulingProblem(
                    name, module.dims, deps[name], arr))

        with TRACER.span("synthesize.schedule"):
            try:
                time_solution = solve_multimodule(
                    problems, constraints, bound=opts.time_bound,
                    offsets=opts.schedule_offsets)
            except NoScheduleExists:
                if tuple(opts.schedule_offsets) == (0,):
                    time_solution = solve_multimodule(
                        problems, constraints, bound=opts.time_bound,
                        offsets=range(-opts.time_bound, opts.time_bound + 1))
                else:
                    raise
        schedules = normalise_start(time_solution.schedules, problems,
                                    start=0)
        return state.replace(deps=deps, constraints=tuple(constraints),
                             schedules=schedules)


class AllocatePass(Pass):
    """Joint space maps for the scheduled system.

    Produces ``space_maps``, the winning candidate's ``microcode`` and the
    system's value-free execution ``plan`` (built once, for the trace every
    lowering check compiles against); ``lower-microcode`` hands the last
    two to the design's execution cache."""

    name = "allocate"
    description = ("jointly solve space maps (adjacency, conflict-freedom, "
                   "flow realisability; plan escalation), compile-checking "
                   "the placement and routing of every candidate that could "
                   "win on a value-free trace")

    def run(self, state: PipelineState) -> PipelineState:
        system: RecurrenceSystem = state.require("system", "decompose-chains")
        schedules = state.require("schedules", "schedule")
        deps = state.require("deps", "schedule")
        constraints = state.require("constraints", "schedule")
        opts = state.options
        params = dict(state.params)
        interconnect = state.interconnect
        space_bound = opts.space_bound
        space_offsets = opts.space_offsets
        decomposer = interconnect.decomposer()
        points = {name: module.domain.points_array(params)
                  for name, module in system.modules.items()}

        def offsets_for(name: str, plan: str) -> Sequence[int]:
            if space_offsets is not None:
                return space_offsets
            if plan == "plain":
                return (0,)
            # "translated" plan: allow small offsets for low-dimensional
            # modules (combine statements) where a translation can fold
            # their cells onto another module's region — the Section VI
            # design maps A5 to cell (i+1, i).  High-dimensional modules
            # keep offset 0: a common translation never reduces their own
            # cell count.
            module = system.modules[name]
            if len(module.dims) <= interconnect.label_dim:
                return (-1, 0, 1)
            return (0,)

        plans = (["plain"] if space_offsets is not None
                 else ["plain", "translated"])
        best = None
        best_mc = None
        last_error: NoSpaceMapExists | None = None
        exec_plan = None
        check_trace = None

        def lowering(candidate):
            """Physical feasibility of a candidate beyond the solvers'
            model.

            The space solver enforces adjacency and conflict-freedom but
            not link *bandwidth*: a minimal-cells solution can still need
            one physical channel twice in the same cycle.  Compile the
            candidate's placement and routing over a value-free trace;
            returns ``(microcode, None)`` or ``(None, failure)``."""
            nonlocal exec_plan, check_trace
            with TRACER.span("space.lowering_check"):
                if check_trace is None:
                    with TRACER.span("space.plan"):
                        exec_plan = build_execution_plan(system, params)
                        check_trace = structural_trace(system, params,
                                                       exec_plan)
                try:
                    mc = compile_design(check_trace, schedules,
                                        candidate.maps, decomposer)
                except MachineError as exc:
                    return None, NoSpaceMapExists(
                        f"space solution does not lower: "
                        f"{type(exc).__name__}: {exc}")
            return mc, None

        with TRACER.span("synthesize.space"):
            search = JointSpaceSearch(
                [ModuleSpaceProblem(name, module.dims, deps[name],
                                    points[name], schedules[name],
                                    bound=space_bound)
                 for name, module in system.modules.items()],
                constraints, decomposer, interconnect.label_dim)
            solved: list[dict] = []
            for plan in plans:
                offsets = {name: tuple(offsets_for(name, plan))
                           for name in system.modules}
                # A plan that repeats a solved plan's offsets is the same
                # problem and would give the same outcome.
                if offsets in solved:
                    continue
                solved.append(offsets)
                # Only a strictly smaller candidate can replace ``best``
                # (and a lowering failure only matters while there is
                # none), so ``best``'s count bounds the later plans.
                try:
                    candidate = search.solve(
                        offsets, upper_bound=None if best is None
                        else best.total_cells)
                except NoSpaceMapExists as exc:
                    last_error = exc
                    continue
                mc, failure = lowering(candidate)
                if failure is not None:
                    last_error = failure
                    continue
                best, best_mc = candidate, mc
            if best is None:
                # Final escalation: offsets everywhere.
                try:
                    best = search.solve({name: (-1, 0, 1)
                                         for name in system.modules})
                except NoSpaceMapExists as exc:
                    error = last_error if last_error is not None else exc
                    raise error from exc
                best_mc, failure = lowering(best)
                if failure is not None:
                    raise failure
        return state.replace(space_maps=best.maps, plan=exec_plan,
                             microcode=best_mc)


class LowerMicrocodePass(Pass):
    name = "lower-microcode"
    description = ("package the Design and guarantee the value-free cell "
                   "program (injections, operations, hops) exists for the "
                   "chosen placement")

    def run(self, state: PipelineState) -> PipelineState:
        system: RecurrenceSystem = state.require("system", "decompose-chains")
        schedules = state.require("schedules", "schedule")
        space_maps = state.require("space_maps", "allocate")
        params = dict(state.params)
        plan = state.plan
        if plan is None:
            plan = build_execution_plan(system, params)
        microcode = state.microcode
        if microcode is None:
            # A custom pipeline skipped the allocate-time compile check.
            trace = structural_trace(system, params, plan)
            microcode = compile_design(trace, schedules, space_maps,
                                       state.interconnect.decomposer())
        design = Design(system=system, params=params,
                        interconnect=state.interconnect,
                        schedules=dict(schedules),
                        space_maps=dict(space_maps),
                        constraints=list(state.constraints or ()))
        design._exec_cache.update(plan=plan, microcode=microcode)
        return state.replace(plan=plan, microcode=microcode, design=design)


class LowerNativePass(Pass):
    name = "lower-native"
    description = ("emit, compile and cache the design's native C kernel "
                   "(content-addressed by design token; degrades to the "
                   "vector engine without a C toolchain; opt-in)")

    def run(self, state: PipelineState) -> PipelineState:
        design = state.require("design", "lower-microcode")
        # Local imports: core.verify imports this module's package at
        # load time, so the dependency must stay run-time only.
        from repro.core.verify import design_token, lowered_machine
        from repro.machine.native import nativize

        # Primes the same slot verify_design(engine="native") reads, so
        # verification after this pass starts warm — kernel already
        # compiled (or its .so already on disk from an earlier process).
        design._exec_cache["nmachine"] = nativize(
            lowered_machine(design), cache_token=design_token(design))
        return state


#: Every pass the CLI and callers can name, in presentation order.
PASS_REGISTRY: dict[str, type[Pass]] = {
    DecomposeChainsPass.name: DecomposeChainsPass,
    FuseAccumulatorsPass.name: FuseAccumulatorsPass,
    CrossChainCSEPass.name: CrossChainCSEPass,
    SchedulePass.name: SchedulePass,
    AllocatePass.name: AllocatePass,
    LowerMicrocodePass.name: LowerMicrocodePass,
    LowerNativePass.name: LowerNativePass,
}

#: Pass names of the default lowering, in order.
DEFAULT_PASS_NAMES: tuple[str, ...] = (
    DecomposeChainsPass.name,
    FuseAccumulatorsPass.name,
    SchedulePass.name,
    AllocatePass.name,
    LowerMicrocodePass.name,
)


def make_pass(name: str) -> Pass:
    """Instantiate a registered pass by name."""
    try:
        return PASS_REGISTRY[name]()
    except KeyError:
        raise KeyError(f"unknown pass {name!r}; available: "
                       f"{sorted(PASS_REGISTRY)}") from None


def available_passes() -> list[tuple[str, str, bool]]:
    """``(name, description, in_default_pipeline)`` for every pass."""
    return [(name, cls.description, name in DEFAULT_PASS_NAMES)
            for name, cls in PASS_REGISTRY.items()]


def default_pipeline(print_ir_after: Sequence[str] = (),
                     emit=print) -> PassPipeline:
    """The pipeline equivalent to the historical one-shot lowering.

    Byte-identical contract: on every input the resulting design and the
    canonical event streams of all three engines match the pre-pipeline
    ``synthesize`` exactly.
    """
    return PassPipeline([make_pass(name) for name in DEFAULT_PASS_NAMES],
                        print_ir_after=print_ir_after, emit=emit)


def run_pipeline(source: "RecurrenceSystem | HighLevelSpec",
                 params: Mapping[str, int], interconnect,
                 options, pipeline: PassPipeline | None = None
                 ) -> PipelineState:
    """Thread ``source`` through ``pipeline`` (default: the full lowering).

    ``source`` may be a canonic :class:`RecurrenceSystem` (the historical
    entry point) or a :class:`HighLevelSpec`, in which case the
    ``decompose-chains`` pass performs the Section III restructuring
    first.  Returns the final state; the packaged design (if the pipeline
    lowered that far) is ``state.design``.
    """
    if pipeline is None:
        pipeline = default_pipeline()
    state = PipelineState(params=dict(params), interconnect=interconnect,
                          options=options)
    if isinstance(source, HighLevelSpec):
        state = state.replace(spec=source)
    elif isinstance(source, RecurrenceSystem):
        state = state.replace(system=source)
    else:
        raise TypeError(
            f"source must be a RecurrenceSystem or HighLevelSpec, "
            f"got {type(source).__name__}")
    return pipeline.run(state)
