"""Joint space allocation — reproduces S', S'', S of Sections V.B and VI."""

import itertools

import numpy as np
import pytest

from repro.arrays import (
    FIG1_UNIDIRECTIONAL,
    FIG2_EXTENDED,
    STOCK_INTERCONNECTS,
)
from repro.core import link_constraints
from repro.deps import DependenceMatrix, system_dependence_matrices
from repro.problems import dp_system
from repro.schedule import (
    LinearSchedule,
    ModuleSchedulingProblem,
    solve_multimodule,
)
from repro.schedule.constraints import GlobalConstraint
from repro.space import (
    ModuleSpaceProblem,
    NoSpaceMapExists,
    SpaceMap,
    adjacency_ok,
    cells_used,
    solve_multimodule_space,
)
from repro.space.allocation import feasible_bases

from .reference_multimodule import solve_multimodule_space_reference


@pytest.fixture(scope="module")
def dp_setup():
    n = 8
    system = dp_system()
    params = {"n": n}
    deps = system_dependence_matrices(system)
    pts = {name: np.array(list(m.domain.points(params)), dtype=np.int64)
           for name, m in system.modules.items()}
    sched_problems = [
        ModuleSchedulingProblem(name, m.dims, deps[name], pts[name])
        for name, m in system.modules.items()]
    constraints = link_constraints(system, params)
    schedules = solve_multimodule(sched_problems, constraints, bound=3).schedules
    return system, deps, pts, constraints, schedules


def space_problems(system, deps, pts, schedules, comb_offsets):
    return [ModuleSpaceProblem(
        name, m.dims, deps[name], pts[name], schedules[name],
        bound=1, offsets=comb_offsets if name == "comb" else (0,))
        for name, m in system.modules.items()]


class TestFig1:
    def test_paper_maps(self, dp_setup):
        system, deps, pts, constraints, schedules = dp_setup
        sol = solve_multimodule_space(
            space_problems(system, deps, pts, schedules, (0,)),
            constraints, FIG1_UNIDIRECTIONAL.decomposer(), 2)
        assert sol.maps["m1"].matrix == ((0, 1, 0), (1, 0, 0))
        assert sol.maps["m2"].matrix == ((0, 1, 0), (1, 0, 0))
        assert sol.maps["comb"].matrix == ((0, 1), (1, 0))

    def test_cell_count_n_squared_over_two(self, dp_setup):
        system, deps, pts, constraints, schedules = dp_setup
        sol = solve_multimodule_space(
            space_problems(system, deps, pts, schedules, (0,)),
            constraints, FIG1_UNIDIRECTIONAL.decomposer(), 2)
        n = 8
        assert sol.total_cells == n * (n - 1) // 2 - (n - 1)  # pairs j-i>=2


class TestFig2:
    def test_paper_maps(self, dp_setup):
        system, deps, pts, constraints, schedules = dp_setup
        sol = solve_multimodule_space(
            space_problems(system, deps, pts, schedules, (-1, 0, 1)),
            constraints, FIG2_EXTENDED.decomposer(), 2)
        assert sol.maps["m1"].matrix == ((0, 0, 1), (1, 0, 0))
        assert sol.maps["m2"].matrix == ((1, 1, -1), (1, 0, 0))
        assert sol.maps["comb"].matrix == ((1, 0), (1, 0))
        assert sol.maps["comb"].offset == (1, 0)

    def test_fewer_cells_than_fig1(self, dp_setup):
        system, deps, pts, constraints, schedules = dp_setup
        fig1 = solve_multimodule_space(
            space_problems(system, deps, pts, schedules, (0,)),
            constraints, FIG1_UNIDIRECTIONAL.decomposer(), 2)
        fig2 = solve_multimodule_space(
            space_problems(system, deps, pts, schedules, (-1, 0, 1)),
            constraints, FIG2_EXTENDED.decomposer(), 2)
        assert fig2.total_cells < fig1.total_cells


class TestAdjacency:
    def test_adjacency_checks_every_instance(self, dp_setup):
        system, deps, pts, constraints, schedules = dp_setup
        sol = solve_multimodule_space(
            space_problems(system, deps, pts, schedules, (0,)),
            constraints, FIG1_UNIDIRECTIONAL.decomposer(), 2)
        for gc in constraints:
            assert adjacency_ok(
                gc, schedules[gc.dst_module], schedules[gc.src_module],
                sol.maps[gc.dst_module], sol.maps[gc.src_module],
                FIG1_UNIDIRECTIONAL.decomposer())

    def test_infeasible_interconnect(self, dp_setup):
        """Without a leftward or stay link, the DP flows cannot be placed."""
        from repro.arrays import Interconnect

        system, deps, pts, constraints, schedules = dp_setup
        crippled = Interconnect("no-stay-up-only", ((0, 1),))
        with pytest.raises(NoSpaceMapExists):
            solve_multimodule_space(
                space_problems(system, deps, pts, schedules, (0,)),
                constraints, crippled.decomposer(), 2)


class TestHopTable:
    @pytest.mark.parametrize("name", sorted(STOCK_INTERCONNECTS))
    def test_matches_reachable_within(self, name):
        """One BFS table answers constraint (10) exactly as
        ``reachable_within`` does, negative and zero budgets included."""
        decomposer = STOCK_INTERCONNECTS[name].decomposer()
        dim = decomposer.space_dim
        lo, hi = np.full(dim, -4), np.full(dim, 3)
        for max_gap in (-1, 0, 1, 3):
            table = decomposer.hop_table(lo, hi, max_gap)
            box = list(itertools.product(range(-4, 4), repeat=dim))
            assert len(table) == len(box)
            for hops, disp in zip(table.tolist(), box):
                for gap in range(-1, max_gap + 1):
                    assert (hops <= gap) \
                        == decomposer.reachable_within(disp, gap)


class TestTieBreak:
    """A real tie in cell count, won by an assignment the search visits
    after an equal-count one.

    Candidates are visited base matrix first, then offset, while the
    tie-break key puts each row's offset right after that row.  ``P``'s
    offsets are drawn from (1, -1), so no candidate sits at offset 0: the
    base ``[0 1; 1 0]`` (visited first) reaches 3 cells only at offset
    (-1, -1), and ``[0 1; -1 1]`` (visited later) at (1, 1), whose first
    offset coordinate ranks before -1.  ``Q``'s single cell lands on a
    cell of ``P`` in both, so the tie is already complete at ``P``'s
    level: a search that pruned equal partial unions, or that kept the
    first of equal counts, would return the earlier assignment.
    """

    ic = STOCK_INTERCONNECTS["hex-6"]
    p_points = np.array([(0, -1), (1, 1), (2, -2)])
    p_schedule = LinearSchedule(("i", "j"), (0, 1))
    # Q reads P's point (1, 1), two cycles after P computes it.
    q_schedule = LinearSchedule(("k",), (1,), offset=3)
    link = GlobalConstraint("Q.p", "Q", "P", np.array([(0,)]),
                            np.array([(1, 1)]))

    def problems(self):
        return [
            ModuleSpaceProblem(
                "P", ("i", "j"), DependenceMatrix.from_dict({"v": [(0, 1)]}),
                self.p_points, self.p_schedule, offsets=(1, -1)),
            ModuleSpaceProblem("Q", ("k",), None, np.array([(0,)]),
                               self.q_schedule)]

    def test_smaller_key_wins_the_tie(self):
        sol = solve_multimodule_space(self.problems(), [self.link],
                                      self.ic.decomposer(), 2)
        assert sol.maps["P"] == SpaceMap(("i", "j"), ((0, 1), (-1, 1)),
                                         (1, 1))
        assert sol.total_cells == 3
        ref = solve_multimodule_space_reference(
            self.problems(), [self.link], self.ic.decomposer(), 2)
        assert (sol.maps, sol.total_cells) == (ref.maps, ref.total_cells)

    def test_tie_is_real_and_visited_first(self):
        problems = self.problems()
        decomposer = self.ic.decomposer()
        earlier = SpaceMap(("i", "j"), ((0, 1), (1, 0)), (-1, -1))
        q_map = SpaceMap(("k",), ((0,), (0,)))
        assert adjacency_ok(self.link, self.q_schedule, self.p_schedule,
                            q_map, earlier, decomposer)
        cells = cells_used(earlier, self.p_points) \
            | cells_used(q_map, np.array([(0,)]))
        assert len(cells) == 3
        p = problems[0]
        bases = feasible_bases(p.dims, 2, p.deps, p.schedule, decomposer,
                               p.points).tolist()
        assert bases.index([[0, 1], [1, 0]]) < bases.index([[0, 1], [-1, 1]])


class TestSearchSpans:
    def test_child_spans_cover_space_time(self):
        from repro.api import synthesize
        from repro.obs import TRACER

        was_enabled = TRACER.enabled
        TRACER.reset()
        TRACER.enable()
        try:
            synthesize(dp_system(), {"n": 8}, FIG2_EXTENDED)
            (space,) = [child for root in TRACER.spans()
                        for child in _walk(root)
                        if child.name == "synthesize.space"]
        finally:
            TRACER.enabled = was_enabled
            TRACER.reset()
        names = {child.name for child in space.children}
        assert names == {"space.enumerate", "space.tables", "space.search",
                         "space.lowering_check"}
        covered = sum(child.duration for child in space.children)
        assert covered >= 0.9 * space.duration


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)
