"""The table-driven joint space search against the reference backtracker.

``reference_multimodule.py`` keeps the pairwise-memo search verbatim.  For
every problem family on every stock interconnect, both must pick the same
maps with the same cell count, or both raise :class:`NoSpaceMapExists`
with the same message.

Offsets: "plain" is ``(0,)`` everywhere; "offsets" gives ``(-1, 0, 1)``
to the modules the pipeline's translated plan widens (dims <= label_dim),
or to every module when there is none (matmul, at n <= 6).  Widening the
3-D dp modules too takes the reference minutes per case.  dp runs at
fewer sizes on the mesh and hex arrays, where the reference is slowest,
to keep this module under 30 s.
"""

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
from repro.schedule.solver import NoScheduleExists
from repro.space.multimodule import (
    ModuleSpaceProblem,
    NoSpaceMapExists,
    solve_multimodule_space,
)

from .reference_multimodule import solve_multimodule_space_reference

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
