"""Compiled-engine equivalence: the lowered integer-indexed machine must be
bit-identical to the interpreted cycle-by-cycle oracle — values, results and
the full ``MachineStats`` block, violation lists included."""

import random

import numpy as np
import pytest

from repro.core import synthesize
from repro.arrays import FIG2_EXTENDED, LINEAR_BIDIR
from repro.ir import trace_execution
from repro.ir.evaluate import ValueKey
from repro.machine import (
    CapacityError,
    Microcode,
    MissingOperandError,
    compile_design,
    lower,
    run,
)
from repro.machine.microcode import Hop, Injection, Operation
from repro.problems import dp_inputs, matmul_inputs, matmul_system


def cross_check(design, inputs, strict=True, reclaim_registers=True):
    """Run both engines on one design and assert identical output."""
    trace = trace_execution(design.system, design.params, inputs)
    mc = compile_design(trace, design.schedules, design.space_maps,
                        design.interconnect.decomposer())
    interp = run(mc, trace, inputs, strict=strict,
                 reclaim_registers=reclaim_registers)
    comp = run(mc, trace, inputs, strict=strict,
               reclaim_registers=reclaim_registers, engine="compiled")
    assert comp.values == interp.values
    assert comp.results == interp.results
    assert comp.stats == interp.stats
    return interp, comp


class TestEquivalence:
    def test_dp_fig1(self, dp_design_fig1, dp_host_inputs):
        cross_check(dp_design_fig1, dp_host_inputs)

    def test_dp_fig2(self, dp_design_fig2, dp_host_inputs):
        cross_check(dp_design_fig2, dp_host_inputs)

    def test_matmul(self):
        n = 4
        system = matmul_system()
        design = synthesize(system, {"n": n}, FIG2_EXTENDED)
        rng = random.Random(11)
        A = np.array([[rng.randint(-5, 5) for _ in range(n)]
                      for _ in range(n)])
        B = np.array([[rng.randint(-5, 5) for _ in range(n)]
                      for _ in range(n)])
        cross_check(design, matmul_inputs(A, B))

    def test_conv_backward(self, conv_design_backward):
        from repro.problems import convolution_inputs

        cross_check(conv_design_backward,
                    convolution_inputs([1, -2, 3, 0, 5, -1, 2, 4, -3, 1],
                                       [2, -1, 0, 3]))

    def test_conv_forward(self, conv_design_forward):
        from repro.problems import convolution_inputs

        cross_check(conv_design_forward,
                    convolution_inputs([1, -2, 3, 0, 5, -1, 2, 4, -3, 1],
                                       [2, -1, 0, 3]))

    def test_no_reclamation_mode(self, dp_design_fig2, dp_host_inputs):
        cross_check(dp_design_fig2, dp_host_inputs, reclaim_registers=False)

    def test_property_random_seeds(self, dp_design_fig2):
        """One lowering, many value passes: every seed must agree with a
        fresh interpreted run."""
        design = dp_design_fig2
        n = design.params["n"]
        base = dp_inputs([1] * (n - 1))
        trace = trace_execution(design.system, design.params, base)
        mc = compile_design(trace, design.schedules, design.space_maps,
                            design.interconnect.decomposer())
        cm = lower(mc, trace)
        for seed in range(8):
            rng = random.Random(seed)
            inputs = dp_inputs([rng.randint(1, 9) for _ in range(n - 1)])
            interp = run(mc, trace, inputs)
            comp = cm.execute(inputs)
            assert comp.values == interp.values
            assert comp.results == interp.results
            assert comp.stats == interp.stats

    def test_unknown_engine_rejected(self, dp_design_fig2, dp_host_inputs):
        design = dp_design_fig2
        trace = trace_execution(design.system, design.params, dp_host_inputs)
        mc = compile_design(trace, design.schedules, design.space_maps,
                            design.interconnect.decomposer())
        with pytest.raises(ValueError, match="unknown engine"):
            run(mc, trace, dp_host_inputs, engine="quantum")


def hand_capacity_microcode():
    """Two values of one stream crossing one link in the same cycle — a
    capacity violation either engine must handle identically."""
    from repro.ir import (
        Equation,
        InputRule,
        Module,
        Polyhedron,
        RecurrenceSystem,
    )
    from repro.ir.affine import var

    I = var("i")
    domain = Polyhedron.box({"i": (1, 2)})
    eqn = Equation("x", (InputRule("inp", (I,)),))
    module = Module("m", ("i",), domain, [eqn])
    system = RecurrenceSystem("tiny", [module], outputs=[],
                              input_names=("inp",))
    trace = trace_execution(system, {}, {"inp": lambda i: i * 10})
    k1 = ValueKey("m", "x", (1,))
    k2 = ValueKey("m", "x", (2,))
    mc = Microcode()
    mc.placement = {k1: (0, (0,)), k2: (0, (0,))}
    mc.first_cycle = 0
    mc.last_cycle = 2
    mc.injections = [
        Injection(k1, (0,), 0, "inp", (1,)),
        Injection(k2, (0,), 0, "inp", (2,)),
    ]
    mc.hops = [
        Hop(k1, (0,), (1,), 1, ("m", "x")),
        Hop(k2, (0,), (1,), 1, ("m", "x")),
    ]
    mc.operations = [
        Operation(k1, (1,), 2, None, (k1,), ("m", "x")),
        Operation(k2, (1,), 2, None, (k2,), ("m", "x")),
    ]
    return mc, trace


def hand_cell_microcode(operations, hops=()):
    """The tiny system's ``m::x(1,)`` injected into cell ``(0,)`` at cycle
    0, followed by the given operations and hops."""
    mc, trace = hand_capacity_microcode()
    k1 = ValueKey("m", "x", (1,))
    mc.placement = {k1: (0, (0,))}
    mc.injections = [Injection(k1, (0,), 0, "inp", (1,))]
    mc.operations = list(operations)
    mc.hops = list(hops)
    return mc, trace


def logged(mc, trace, engine):
    from repro.obs import EventLog, canonical_order

    log = EventLog()
    result = run(mc, trace, {"inp": lambda i: i * 10}, strict=False,
                 engine=engine, sink=log)
    return result, canonical_order(log.events)


class TestHandWrittenOrder:
    """Hand-written microcode the compiler never emits: both engines must
    still agree on order, errors and capacity."""

    X, Y, Z = (ValueKey("m", v, (1,)) for v in ("x", "y", "z"))

    def test_same_cycle_reads_are_ordered_topologically(self):
        # z := y is listed before y := x in the same cell and cycle.
        mc, trace = hand_cell_microcode([
            Operation(self.Z, (0,), 1, None, (self.Y,), ("m", "z")),
            Operation(self.Y, (0,), 1, None, (self.X,), ("m", "y"))])
        mc.last_cycle = 1
        interp, interp_log = logged(mc, trace, "interpreted")
        comp, comp_log = logged(mc, trace, "compiled")
        assert comp.values == interp.values == {
            self.X: 10, self.Y: 10, self.Z: 10}
        assert list(comp.values) == list(interp.values)
        assert comp.stats == interp.stats
        assert comp_log == interp_log

    def test_cyclic_same_cycle_reads_raise_the_same(self):
        # The cycle is reported even though z also reads a value that
        # never arrives: the interpreter orders a cell before it reads.
        never = ValueKey("m", "w", (1,))
        mc, trace = hand_cell_microcode([
            Operation(self.Z, (0,), 1, None, (self.Y, never), ("m", "z")),
            Operation(self.Y, (0,), 1, None, (self.Z,), ("m", "y"))])
        mc.last_cycle = 1
        messages = []
        for engine in ("interpreted", "compiled"):
            with pytest.raises(MissingOperandError) as info:
                run(mc, trace, {"inp": lambda i: i * 10}, engine=engine)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("cyclic intra-cycle dependence")

    def test_one_value_twice_on_a_link_is_no_violation(self):
        hop = Hop(self.X, (0,), (1,), 1, ("m", "x"))
        mc, trace = hand_cell_microcode(
            [Operation(self.Y, (1,), 2, None, (self.X,), ("m", "y"))],
            hops=[hop, hop])
        mc.last_cycle = 2
        interp, interp_log = logged(mc, trace, "interpreted")
        comp, comp_log = logged(mc, trace, "compiled")
        assert interp.stats.capacity_violations == []
        assert comp.stats == interp.stats
        assert comp.values == interp.values
        assert comp_log == interp_log


class TestCapacityPath:
    def test_strict_raises_same_message(self):
        inputs = {"inp": lambda i: i * 10}
        messages = []
        for engine in ("interpreted", "compiled"):
            mc, trace = hand_capacity_microcode()
            with pytest.raises(CapacityError) as info:
                run(mc, trace, inputs, strict=True, engine=engine)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_non_strict_records_and_keeps_running(self):
        """``strict=False`` must record the violation *and* complete the
        run — both engines, identical violation lists and values."""
        inputs = {"inp": lambda i: i * 10}
        mc, trace = hand_capacity_microcode()
        interp = run(mc, trace, inputs, strict=False)
        comp = run(mc, trace, inputs, strict=False, engine="compiled")
        for result in (interp, comp):
            assert result.stats.capacity_violations == [
                (1, (0,), (1,), ("m", "x"))]
            assert result.values[ValueKey("m", "x", (1,))] == 10
            assert result.values[ValueKey("m", "x", (2,))] == 20
        assert interp.stats == comp.stats

    def test_missing_hop_source_raises_both(self):
        inputs = {"inp": lambda i: i * 10}
        for engine in ("interpreted", "compiled"):
            mc, trace = hand_capacity_microcode()
            mc.hops[0] = Hop(ValueKey("m", "x", (1,)), (5,), (1,), 1,
                             ("m", "x"))
            with pytest.raises(MissingOperandError):
                run(mc, trace, inputs, strict=False, engine=engine)


class TestProtectedReclamation:
    def test_outputs_survive_reclamation(self, dp_design_fig2,
                                         dp_host_inputs):
        """Register reclamation must never evict protected output values:
        with reclamation on, every output is still present and correct at
        the end of the run (the machine's results match the reference)."""
        design = dp_design_fig2
        trace = trace_execution(design.system, design.params, dp_host_inputs)
        mc = compile_design(trace, design.schedules, design.space_maps,
                            design.interconnect.decomposer())
        for engine in ("interpreted", "compiled"):
            result = run(mc, trace, dp_host_inputs, reclaim_registers=True,
                         engine=engine)
            assert result.results == trace.results
            for out in design.system.outputs:
                for p in out.domain.points(design.params):
                    assert ValueKey(out.module, out.var, p) in result.values

    def test_reclamation_reduces_pressure(self, dp_design_fig2,
                                          dp_host_inputs):
        """Sanity of the vectorised interval sweep: reclaiming must not
        report more registers than holding everything forever."""
        reclaimed, _ = cross_check(dp_design_fig2, dp_host_inputs,
                                   reclaim_registers=True)
        kept, _ = cross_check(dp_design_fig2, dp_host_inputs,
                              reclaim_registers=False)
        assert (reclaimed.stats.max_registers_per_cell
                < kept.stats.max_registers_per_cell)
