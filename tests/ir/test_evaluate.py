"""The reference system evaluator: values, traces, failure modes."""

import pytest

from repro.ir import (
    ADD,
    ComputeRule,
    CyclicDependence,
    Equation,
    IDENTITY,
    InputRule,
    Module,
    OutputSpec,
    Polyhedron,
    RecurrenceSystem,
    Ref,
    ValueKey,
    equals,
    run_system,
    trace_execution,
)
from repro.ir.affine import var
from repro.ir.evaluate import build_execution_plan
from repro.ir.predicates import at_least

I = var("i")


def fib_system():
    """x_i = x_{i-1} + x_{i-2} with two seed inputs."""
    domain = Polyhedron.box({"i": (1, 10)})
    eqn = Equation("x", (
        InputRule("seed", (I,), guard=at_least(2 - I, 0)),
        ComputeRule(ADD, (Ref.of("x", I - 1), Ref.of("x", I - 2)),
                    guard=at_least(I, 3)),
    ))
    m = Module("fib", ("i",), domain, [eqn])
    return RecurrenceSystem(
        "fib", [m], outputs=[OutputSpec("fib", "x", domain, (I,))],
        input_names=("seed",))


class TestEvaluation:
    def test_fibonacci(self):
        res = run_system(fib_system(), {}, {"seed": lambda i: 1})
        assert res[(10,)] == 55

    def test_trace_records_operands(self):
        trace = trace_execution(fib_system(), {}, {"seed": lambda i: 1})
        ev = trace.events[ValueKey("fib", "x", (5,))]
        assert set(ev.operands) == {ValueKey("fib", "x", (4,)),
                                    ValueKey("fib", "x", (3,))}

    def test_consumers_inverts_edges(self):
        trace = trace_execution(fib_system(), {}, {"seed": lambda i: 1})
        consumers = trace.consumers()
        uses_of_3 = consumers[ValueKey("fib", "x", (3,))]
        assert ValueKey("fib", "x", (4,)) in uses_of_3
        assert ValueKey("fib", "x", (5,)) in uses_of_3

    def test_missing_input_binding(self):
        with pytest.raises(KeyError):
            run_system(fib_system(), {}, {})

    def test_cycle_detected(self):
        domain = Polyhedron.box({"i": (1, 3)})
        # x depends on y at the same point, y depends on x: a zero-weight
        # cycle the evaluator must reject.
        x = Equation("x", (ComputeRule(IDENTITY, (Ref.of("y", I),)),))
        y = Equation("y", (ComputeRule(IDENTITY, (Ref.of("x", I),)),))
        m = Module("loop", ("i",), domain, [x, y])
        system = RecurrenceSystem("loop", [m], outputs=[])
        with pytest.raises(CyclicDependence):
            run_system(system, {}, {})

    def test_same_point_acyclic_reference_ok(self):
        """Intra-point (zero-dependence) reads are legal when acyclic."""
        domain = Polyhedron.box({"i": (1, 4)})
        a = Equation("a", (InputRule("inp", (I,)),))
        b = Equation("b", (ComputeRule(ADD, (Ref.of("a", I), Ref.of("a", I))),))
        m = Module("m", ("i",), domain, [a, b])
        system = RecurrenceSystem(
            "m", [m], outputs=[OutputSpec("m", "b", domain, (I,))],
            input_names=("inp",))
        res = run_system(system, {}, {"inp": lambda i: i})
        assert res[(3,)] == 6

    def test_out_of_domain_reference(self):
        domain = Polyhedron.box({"i": (1, 4)})
        bad = Equation("x", (
            ComputeRule(IDENTITY, (Ref.of("x", I - 1),)),))
        m = Module("bad", ("i",), domain, [bad])
        system = RecurrenceSystem("bad", [m], outputs=[])
        with pytest.raises(KeyError):
            run_system(system, {}, {})


def _one_module(*equations, lo=1, hi=4, outputs=None):
    domain = Polyhedron.box({"i": (lo, hi)})
    m = Module("m", ("i",), domain, list(equations))
    return RecurrenceSystem("m", [m], outputs=outputs or [],
                            input_names=("inp",))


class TestPlanErrors:
    """The plan raises the historical evaluator's error, message included,
    for the first reference (rule group by rule group, point by point,
    operand by operand) that resolves to no computed value."""

    def build(self, system):
        return build_execution_plan(system, {})

    def test_outside_the_domain(self):
        system = _one_module(
            Equation("a", (InputRule("inp", (I,)),)),
            Equation("x", (ComputeRule(ADD, (Ref.of("a", I),
                                             Ref.of("a", I + 1))),)))
        with pytest.raises(KeyError, match=r"reference to m::a\(5,\) "
                                           r"outside the domain of module m"):
            self.build(system)

    def test_no_equation(self):
        system = _one_module(
            Equation("x", (ComputeRule(IDENTITY, (Ref.of("z", I),)),)))
        with pytest.raises(KeyError, match="no equation for m::z"):
            self.build(system)

    def test_variable_undefined_at_the_point(self):
        system = _one_module(
            Equation("a", (InputRule("inp", (I,)),),
                     where=at_least(I, 2)),
            Equation("x", (ComputeRule(IDENTITY, (Ref.of("a", I),)),)))
        with pytest.raises(ValueError,
                           match=r"variable a is not defined at \{'i': 1\}"):
            self.build(system)

    def test_no_rule_guard_holds(self):
        system = _one_module(
            Equation("x", (InputRule("inp", (I,), guard=at_least(I, 3)),)))
        with pytest.raises(ValueError, match=r"equation for x: no rule "
                                             r"guard holds at \{'i': 1\}"):
            self.build(system)

    def test_cycle_names_the_first_stuck_value(self):
        x = Equation("x", (ComputeRule(IDENTITY, (Ref.of("y", I),)),))
        y = Equation("y", (ComputeRule(IDENTITY, (Ref.of("x", I),)),))
        with pytest.raises(CyclicDependence, match=r"cycle through m::x\(1,\)"):
            self.build(_one_module(x, y))

    def test_output_outside_the_domain(self):
        system = _one_module(
            Equation("x", (InputRule("inp", (I,)),)),
            outputs=[OutputSpec("m", "x", Polyhedron.box({"i": (3, 6)}),
                                (I,))])
        with pytest.raises(KeyError, match=r"reference to m::x\(5,\) "
                                           r"outside the domain of module m"):
            self.build(system)

    def test_first_failing_operand_wins(self):
        """Point by point, then operand by operand: at i=1 the second
        operand is the first unresolvable reference."""
        system = _one_module(
            Equation("a", (InputRule("inp", (I,)),)),
            Equation("x", (ComputeRule(ADD, (Ref.of("a", I + 3),
                                             Ref.of("a", I - 1))),)))
        with pytest.raises(KeyError, match=r"m::a\(0,\)"):
            self.build(system)


def _worklist_order(operands: list) -> list:
    """First-in-first-out Kahn worklist over operand lists: sources in id
    order, each node's consumers in id order."""
    from collections import deque

    indegree = [len(ops) for ops in operands]
    consumers: list = [[] for _ in operands]
    for nid, ops in enumerate(operands):
        for op in ops:
            consumers[op].append(nid)
    ready = deque(nid for nid, d in enumerate(indegree) if d == 0)
    order = []
    while ready:
        nid = ready.popleft()
        order.append(nid)
        for consumer in consumers[nid]:
            indegree[consumer] -= 1
            if indegree[consumer] == 0:
                ready.append(consumer)
    return order


def _systems():
    from repro.problems import (
        convolution_backward,
        convolution_forward,
        dp_system,
        matmul_system,
        parenthesization_system,
        shortest_path_system,
    )

    return [
        ("fib", fib_system(), {}),
        ("dp", dp_system(), {"n": 7}),
        ("matmul", matmul_system(), {"n": 3}),
        ("conv-backward", convolution_backward(), {"n": 7, "s": 3}),
        ("conv-forward", convolution_forward(), {"n": 7, "s": 3}),
        ("parenthesization", parenthesization_system(), {"n": 6}),
        ("shortest-path", shortest_path_system(), {"n": 5}),
    ]


@pytest.mark.parametrize("name,system,params", _systems(),
                         ids=[case[0] for case in _systems()])
def test_plan_order_is_the_worklist_order(name, system, params):
    """The frontier-at-a-time order equals the one-node-at-a-time FIFO
    worklist: microcode lists a cell-cycle's operations, and breaks
    routing ties, in this order."""
    plan = build_execution_plan(system, params)
    assert plan.order_list == _worklist_order(plan.operands)
