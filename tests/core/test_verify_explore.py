"""Verification catches broken designs; exploration reproduces Tables 1/2."""

import inspect
import random

import pytest

from repro.arrays import FIG1_UNIDIRECTIONAL, LINEAR_BIDIR, LINEAR_UNI
from repro.core import (
    Design,
    explore_uniform,
    pareto_front,
    verify_design,
)
from repro.core.verify import _flows_reachable, _stamps_distinct, _within_hops
from repro.deps import system_dependence_matrices
from repro.problems import (
    classify_design,
    convolution_backward,
    convolution_forward,
    convolution_inputs,
)
from repro.schedule import LinearSchedule
from repro.space import SpaceMap

PARAMS = {"n": 10, "s": 4}
X = [3, -1, 4, 1, -5, 9, 2, -6, 5, 3]
W = [2, 7, -1, 8]
INPUTS = convolution_inputs(X, W)


def w2_design(schedule_coeffs=(1, 1), matrix=((0, 1),)):
    system = convolution_backward()
    return Design(
        system=system, params=dict(PARAMS), interconnect=LINEAR_BIDIR,
        schedules={"conv": LinearSchedule(("i", "k"), schedule_coeffs)},
        space_maps={"conv": SpaceMap(("i", "k"), matrix)})


class TestVerifyDesign:
    def test_good_design_passes(self):
        report = verify_design(w2_design(), INPUTS)
        assert report.ok
        assert report.machine_stats is not None

    def test_invalid_schedule_caught(self):
        report = verify_design(w2_design(schedule_coeffs=(1, -1)), INPUTS)
        assert not report.ok
        assert not report.schedule_valid

    def test_conflicting_space_map_caught(self):
        report = verify_design(w2_design(matrix=((0, 0),)), INPUTS)
        assert not report.ok
        assert not report.conflict_free

    def test_unrealisable_flow_caught(self):
        report = verify_design(w2_design(matrix=((0, 2),)), INPUTS)
        assert not report.ok
        assert not report.flows_ok

    def test_engines_agree(self):
        """The compiled verification path (cached plan + lowered machine)
        must reproduce the interpreted oracle's report exactly — twice, so
        the warm cached path is exercised too."""
        design = w2_design()
        oracle = verify_design(design, INPUTS, engine="interpreted")
        for _ in range(2):
            fast = verify_design(design, INPUTS, engine="compiled")
            assert fast.ok == oracle.ok
            assert fast.failures == oracle.failures
            assert fast.machine_stats == oracle.machine_stats

    def test_engines_agree_on_broken_design(self):
        broken = w2_design(schedule_coeffs=(1, -1))
        oracle = verify_design(broken, INPUTS, engine="interpreted")
        fast = verify_design(broken, INPUTS, engine="compiled")
        assert not fast.ok and not oracle.ok
        assert fast.failures == oracle.failures

    def test_vector_engine_agrees(self):
        design = w2_design()
        oracle = verify_design(design, INPUTS, engine="interpreted")
        for _ in range(2):   # second pass hits the cached vplan/vmachine
            fast = verify_design(design, INPUTS, engine="vector")
            assert fast.ok == oracle.ok
            assert fast.failures == oracle.failures
            assert fast.machine_stats == oracle.machine_stats

    def test_vector_engine_agrees_on_broken_design(self):
        broken = w2_design(schedule_coeffs=(1, -1))
        oracle = verify_design(broken, INPUTS, engine="interpreted")
        fast = verify_design(broken, INPUTS, engine="vector")
        assert not fast.ok and not oracle.ok
        assert fast.failures == oracle.failures

    def test_multi_seed_batched_verification(self):
        design = w2_design()
        x_pool = [3, -1, 4, 1, -5, 9, 2, -6, 5, 3, 8, -2]

        def factory(seed):
            return convolution_inputs(
                [x_pool[(seed + k) % len(x_pool)] for k in range(10)], W)

        batched = verify_design(design, factory, engine="vector",
                                seeds=range(5))
        looped = verify_design(design, factory, engine="compiled",
                               seeds=range(5))
        assert batched.ok and looped.ok
        assert batched.seeds_checked == looped.seeds_checked == 5
        assert batched.machine_stats == looped.machine_stats

    def test_empty_seed_sequence_rejected(self):
        # Regression: seeds=[] used to check zero inputs and report OK — a
        # vacuous pass indistinguishable from a real one.
        with pytest.raises(ValueError, match="seeds"):
            verify_design(w2_design(), lambda seed: INPUTS, seeds=[])

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            verify_design(w2_design(), INPUTS, engine="quantum")

    def test_global_gap_violation_caught(self, dp_design_fig1,
                                         dp_host_inputs):
        broken = Design(
            system=dp_design_fig1.system,
            params=dp_design_fig1.params,
            interconnect=dp_design_fig1.interconnect,
            schedules={**dp_design_fig1.schedules,
                       "comb": dp_design_fig1.schedules["comb"].shifted(-3)},
            space_maps=dp_design_fig1.space_maps,
            constraints=dp_design_fig1.constraints)
        report = verify_design(broken, dp_host_inputs)
        assert not report.ok
        assert not report.global_gaps_ok


class TestIndependentOracle:
    """``verify.py`` re-derives eqs. (2) and (3) itself; it must not reuse
    the allocation code it checks, and must still catch what it catches."""

    def test_no_allocation_import(self):
        import ast

        import repro.core.verify as verify

        tree = ast.parse(inspect.getsource(verify))
        imported = {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)}
        imported |= {alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.Import) for alias in node.names}
        assert not any(name.startswith("repro.space") for name in imported)

    def test_hand_built_collision(self, dp_design_fig1, dp_host_inputs):
        # m1 is 3-D; projecting it onto its first coordinate alone puts
        # every (j, k) of one i on the same cell, and m1's schedule gives
        # equal times to some of them.
        sched = dp_design_fig1.schedules["m1"]
        smap = SpaceMap(sched.dims, ((1, 0, 0), (0, 0, 0)))
        pts = dp_design_fig1.module_points("m1")
        assert not _stamps_distinct(sched, smap, pts)
        assert _stamps_distinct(sched, dp_design_fig1.space_maps["m1"], pts)
        broken = Design(
            system=dp_design_fig1.system, params=dp_design_fig1.params,
            interconnect=dp_design_fig1.interconnect,
            schedules=dp_design_fig1.schedules,
            space_maps={**dp_design_fig1.space_maps, "m1": smap},
            constraints=dp_design_fig1.constraints)
        report = verify_design(broken, dp_host_inputs)
        assert not report.conflict_free

    def test_unrealisable_flow(self):
        # Fig. 1 has links +x and -y only: no number of hops moves a datum
        # one cell in -x.
        moves = FIG1_UNIDIRECTIONAL.moves()
        assert _within_hops(moves, (1, -1), 2)
        assert not _within_hops(moves, (1, -1), 1)
        assert not _within_hops(moves, (-1, 0), 10)
        assert _within_hops(moves, (0, 0), 0)
        assert not _within_hops(moves, (0, 0), -1)
        design = w2_design(matrix=((0, -1),))
        deps = system_dependence_matrices(design.system)["conv"]
        sched = design.schedules["conv"]
        unidirectional = LINEAR_UNI.moves()
        assert not _flows_reachable(deps, sched, design.space_maps["conv"],
                                    unidirectional)
        assert _flows_reachable(deps, sched, SpaceMap(("i", "k"), ((0, 1),)),
                                unidirectional)

    def test_agrees_with_allocation_on_random_maps(self):
        from repro.space.allocation import conflict_free, flows_realisable

        design = w2_design()
        pts = design.module_points("conv")
        deps = system_dependence_matrices(design.system)["conv"]
        rng = random.Random(7)
        for _ in range(60):
            coeffs = (rng.randint(-2, 2), rng.randint(-2, 2))
            sched = LinearSchedule(("i", "k"), coeffs)
            smap = SpaceMap(("i", "k"), ((rng.randint(-2, 2),
                                          rng.randint(-2, 2)),))
            assert _stamps_distinct(sched, smap, pts) \
                == conflict_free(sched, smap, pts)
            for ic in (LINEAR_UNI, LINEAR_BIDIR):
                assert _flows_reachable(deps, sched, smap, ic.moves()) \
                    == flows_realisable(deps, sched, smap, ic.decomposer())


class TestExploration:
    def test_table1_backward_labels(self):
        designs = explore_uniform(convolution_backward(), PARAMS,
                                  LINEAR_BIDIR, time_bound=2)
        labels = {classify_design(d.flows) for d in designs} - {None}
        assert "W2" in labels
        assert "W1" not in labels and "R2" not in labels

    def test_table2_forward_labels(self):
        designs = explore_uniform(convolution_forward(), PARAMS,
                                  LINEAR_BIDIR, time_bound=2)
        labels = {classify_design(d.flows) for d in designs} - {None}
        assert {"W1", "R2"} <= labels
        assert "W2" not in labels

    def test_every_explored_design_verifies(self):
        designs = explore_uniform(convolution_backward(), PARAMS,
                                  LINEAR_BIDIR, time_bound=1)
        assert designs
        for d in designs[:6]:
            report = verify_design(d.design, INPUTS)
            assert report.ok, report.failures

    def test_sorted_by_quality(self):
        designs = explore_uniform(convolution_backward(), PARAMS,
                                  LINEAR_BIDIR, time_bound=2)
        keys = [(d.makespan, d.cells) for d in designs]
        assert keys == sorted(keys, key=lambda t: t[0])

    def test_explore_interconnects(self):
        from repro.arrays import (
            FIG1_UNIDIRECTIONAL,
            FIG2_EXTENDED,
            Interconnect,
        )
        from repro.core import explore_interconnects
        from repro.problems import dp_system

        bad = Interconnect("horizontal-only", ((0, 0), (1, 0), (-1, 0)))
        results = explore_interconnects(
            dp_system(), {"n": 6},
            [bad, FIG1_UNIDIRECTIONAL, FIG2_EXTENDED])
        names = [ic.name for ic, _ in results]
        # Feasible patterns first, cheapest first; infeasible last.
        assert names == ["fig2-extended", "fig1-unidirectional",
                         "horizontal-only"]
        assert results[-1][1] is None
        assert results[0][1].cell_count < results[1][1].cell_count

    def test_pareto_front(self):
        designs = explore_uniform(convolution_backward(), PARAMS,
                                  LINEAR_BIDIR, time_bound=2)
        front = pareto_front(designs)
        assert front
        for a in front:
            assert not any(
                b.makespan <= a.makespan and b.cells <= a.cells
                and (b.makespan, b.cells) != (a.makespan, a.cells)
                for b in designs)
