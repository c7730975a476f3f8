"""The batched enumerator and the table-driven joint space search against
their reference implementations.

``reference_multimodule.py`` keeps the per-candidate enumerator and the
pairwise-memo search verbatim.  For every problem family on every stock
interconnect, both enumerators must return the same list, order
included, and both searches must pick the same maps with the same cell
count, or both raise :class:`NoSpaceMapExists` with the same message.

Offsets: "plain" is ``(0,)`` everywhere; "offsets" gives ``(-1, 0, 1)``
to the modules the pipeline's translated plan widens (dims <= label_dim),
or to every module when there is none (matmul, at n <= 6).  Widening the
3-D dp modules too takes the reference minutes per case.  dp runs at
fewer sizes on the mesh and hex arrays, where the reference is slowest,
to keep this module under 30 s.
"""

import random

import numpy as np
import pytest

from repro.api import STOCK_INTERCONNECTS, SynthesisOptions
from repro.problems import (
    convolution_backward,
    convolution_forward,
    dp_system,
    matmul_system,
)
from repro.rewrite.pipeline import PassPipeline, make_pass, run_pipeline
from repro.schedule.constraints import GlobalConstraint
from repro.schedule.linear import LinearSchedule
from repro.schedule.solver import NoScheduleExists, valid_candidates
from repro.space.allocation import enumerate_space_maps
from repro.space.multimodule import (
    ModuleSpaceProblem,
    NoSpaceMapExists,
    solve_multimodule_space,
)

from .reference_multimodule import (
    enumerate_space_maps_reference,
    solve_multimodule_space_reference,
)

FAMILIES = {
    "dp": (dp_system, {}),
    "conv-backward": (convolution_backward, {"s": 3}),
    "conv-forward": (convolution_forward, {"s": 3}),
    "matmul": (matmul_system, {}),
}

SCHEDULED = PassPipeline([make_pass(name) for name in
                          ("decompose-chains", "fuse-accumulators",
                           "schedule")])


#: (family, interconnect) -> sizes, where not n = 4, 6, 8.
SIZES = {("dp", "mesh-4"): (4,), ("dp", "hex-6"): (6, 8)}


def outcome(solver, problems, constraints, interconnect):
    try:
        sol = solver(problems, constraints, interconnect.decomposer(),
                     interconnect.label_dim)
    except NoSpaceMapExists as exc:
        return "infeasible", str(exc)
    return sol.maps, sol.total_cells


@pytest.mark.parametrize("interconnect", sorted(STOCK_INTERCONNECTS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_same_maps_as_reference(family, interconnect):
    builder, extra = FAMILIES[family]
    ic = STOCK_INTERCONNECTS[interconnect]
    for n in SIZES.get((family, interconnect), (4, 6, 8)):
        params = {"n": n, **extra}
        try:
            state = run_pipeline(builder(), params, ic, SynthesisOptions(),
                                 pipeline=SCHEDULED)
        except NoScheduleExists:
            continue
        modules = state.system.modules
        widened = {name for name, m in modules.items()
                   if len(m.dims) <= ic.label_dim}
        if not widened and n <= 6:
            widened = set(modules)
        for plan in ("plain", "offsets") if widened else ("plain",):
            problems = [
                ModuleSpaceProblem(
                    name, m.dims, state.deps[name],
                    m.domain.points_array(params), state.schedules[name],
                    offsets=(-1, 0, 1) if plan == "offsets"
                    and name in widened else (0,))
                for name, m in modules.items()]
            got = outcome(solve_multimodule_space, problems,
                          state.constraints, ic)
            want = outcome(solve_multimodule_space_reference, problems,
                           state.constraints, ic)
            assert got == want, (family, interconnect, n, plan)


#: (bound, offsets) of every enumeration case.
ENUMERATION_BOXES = ((1, (0,)), (1, (-1, 0, 1)), (2, (0,)))
#: The reference needs ~1.3 s for a box of 5^6 base matrices (3-D modules
#: on 2-D arrays at bound 2), so boxes that large run on this interconnect
#: only, with the pipeline's schedule.
LARGE_BOX = 5 ** 4
LARGE_BOX_INTERCONNECT = "fig2-extended"


@pytest.mark.parametrize("interconnect", sorted(STOCK_INTERCONNECTS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_same_candidates_as_reference_enumerator(family, interconnect):
    """Each module under the pipeline's schedule and one sampled valid
    schedule (coefficients in [-2, 2]), in every box."""
    builder, extra = FAMILIES[family]
    ic = STOCK_INTERCONNECTS[interconnect]
    decomposer = ic.decomposer()
    params = {"n": 4, **extra}
    try:
        state = run_pipeline(builder(), params, ic, SynthesisOptions(),
                             pipeline=SCHEDULED)
    except NoScheduleExists:
        pytest.skip("no schedule")
    for name, m in state.system.modules.items():
        deps = state.deps[name]
        valid = valid_candidates(deps, len(m.dims), 2).tolist()
        sampled = random.Random(f"{family}/{interconnect}/{name}").choice(
            valid)
        schedules = [state.schedules[name], LinearSchedule(m.dims, sampled)]
        points = m.domain.points_array(params)
        for bound, offsets in ENUMERATION_BOXES:
            box = (2 * bound + 1) ** (len(m.dims) * ic.label_dim)
            for schedule in schedules:
                if box > LARGE_BOX and (interconnect != LARGE_BOX_INTERCONNECT
                                        or schedule is not schedules[0]):
                    continue
                args = (m.dims, ic.label_dim, deps, schedule, decomposer,
                        points)
                got = enumerate_space_maps(*args, bound=bound,
                                           offsets=offsets)
                want = list(enumerate_space_maps_reference(
                    *args, bound=bound, offsets=offsets))
                assert got == want, (name, schedule, bound, offsets)


def test_constraint_within_one_module():
    """A link whose endpoints lie in the same module is checked on each
    candidate against itself."""
    ic = STOCK_INTERCONNECTS["fig2-extended"]
    params = {"n": 6}
    state = run_pipeline(dp_system(), params, ic, SynthesisOptions(),
                         pipeline=SCHEDULED)
    modules = state.system.modules
    pts = modules["m1"].domain.points_array(params)
    # every point of m1 reads m1 at (i - 1, j - 1, k), one cycle earlier
    own = GlobalConstraint("m1.self", "m1", "m1", pts,
                           pts - np.array([1, 1, 0]))
    problems = [
        ModuleSpaceProblem(name, m.dims, state.deps[name],
                           m.domain.points_array(params),
                           state.schedules[name])
        for name, m in modules.items()]
    constraints = [*state.constraints, own]
    got = outcome(solve_multimodule_space, problems, constraints, ic)
    assert got == outcome(solve_multimodule_space_reference, problems,
                          constraints, ic)
    # the link changes the optimum, so the check above is not vacuous
    assert got != outcome(solve_multimodule_space, problems,
                          state.constraints, ic)


def _space_cases(family, interconnect):
    """``(n, problems, constraints)`` of every plan
    :func:`test_same_maps_as_reference` compares."""
    builder, extra = FAMILIES[family]
    ic = STOCK_INTERCONNECTS[interconnect]
    for n in SIZES.get((family, interconnect), (4, 6, 8)):
        params = {"n": n, **extra}
        try:
            state = run_pipeline(builder(), params, ic, SynthesisOptions(),
                                 pipeline=SCHEDULED)
        except NoScheduleExists:
            continue
        modules = state.system.modules
        widened = {name for name, m in modules.items()
                   if len(m.dims) <= ic.label_dim}
        if not widened and n <= 6:
            widened = set(modules)
        for plan in ("plain", "offsets") if widened else ("plain",):
            yield n, [
                ModuleSpaceProblem(
                    name, m.dims, state.deps[name],
                    m.domain.points_array(params), state.schedules[name],
                    offsets=(-1, 0, 1) if plan == "offsets"
                    and name in widened else (0,))
                for name, m in modules.items()], state.constraints


@pytest.mark.parametrize("interconnect", sorted(STOCK_INTERCONNECTS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_upper_bound_matches_restricted_reference(family, interconnect):
    """``upper_bound=b`` keeps only allocations of fewer than ``b`` cells.
    The optimum of that restriction is the unbounded reference optimum
    when its count is below ``b``, and there is none otherwise.  Bounds:
    the optimum itself (exclusive, so no solution), one above it (the
    same maps) and 1 (below every lower bound, so the solve is skipped)."""
    ic = STOCK_INTERCONNECTS[interconnect]
    for n, problems, constraints in _space_cases(family, interconnect):
        want = outcome(solve_multimodule_space_reference, problems,
                       constraints, ic)
        feasible = want[0] != "infeasible"
        for bound in (1, want[1], want[1] + 1) if feasible else (1, 10**6):
            got = outcome(
                lambda *args: solve_multimodule_space(
                    *args, upper_bound=bound),
                problems, constraints, ic)
            if feasible and want[1] < bound:
                assert got == want, (family, interconnect, n, bound)
            else:
                assert got[0] == "infeasible", (family, interconnect, n,
                                                bound)


def test_single_module_translated_plan_is_skipped():
    """A translation cannot change a single module's cell count, so the
    plain plan's optimum bounds the translated plan below its lower bound
    and the pass skips that plan's search."""
    from repro.api import synthesize
    from repro.obs import TRACER

    ic = STOCK_INTERCONNECTS["fig2-extended"]
    system = convolution_backward()
    (module,) = system.modules.values()
    assert len(module.dims) <= ic.label_dim    # the plan widens its offsets
    was_enabled = TRACER.enabled
    TRACER.reset()
    TRACER.enable()
    try:
        synthesize(system, {"n": 8, "s": 3}, ic)
        (space,) = [span for root in TRACER.spans()
                    for span in _walk(root)
                    if span.name == "synthesize.space"]
    finally:
        TRACER.enabled = was_enabled
        TRACER.reset()
    searches = [child for child in space.children
                if child.name == "space.search"]
    assert len(searches) == 1


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)
