"""Reference (sequential) execution of a :class:`RecurrenceSystem`.

This evaluator is the semantic ground truth for everything downstream: the
systolic machine simulator must produce exactly these values, and the
dependence edges recorded here drive both design verification and machine
microcode generation.

Values are identified by :class:`ValueKey` ``(module, var, point)``.
Execution is split into two phases:

* :func:`build_execution_plan` — resolve, for every defined value, which
  rule fires (:func:`select_rules`: vectorised first-match guard selection
  over the enumerated domain arrays, the one rule selection the global
  link constraints read too) and which values it reads, give every value
  one dense integer id, and topologically order the dependence-id graph
  (Kahn, one frontier at a time).  The plan is int64 arrays per rule group
  and is the one id space the microcode and the lowered machine index too.
  It depends only on the system and the parameter binding — never on input
  values — so callers that execute the same system repeatedly (the
  verification engine, sweeps over random seeds) can build it once.
* :func:`execute_plan` — one pass over the pre-ordered node table applying
  each rule to already-computed operand slots.  No recursion (deep DP
  chains cannot hit Python's recursion limit) and no per-value dict
  hashing on the hot path.

``trace_execution`` composes the two and is drop-in compatible with the
historical recursive evaluator, including its failure modes: missing input
bindings and out-of-domain references raise :class:`KeyError`, cyclic
systems raise :class:`CyclicDependence`, uncovered guards raise
:class:`ValueError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from repro.ir.arrayeval import eval_index_int, predicate_mask
from repro.ir.program import RecurrenceSystem
from repro.ir.statements import ComputeRule, InputRule, LinkRule, Rule


@dataclass(frozen=True)
class ValueKey:
    """Identity of one computed value in the system."""

    module: str
    var: str
    point: tuple[int, ...]

    def __repr__(self) -> str:
        return f"{self.module}::{self.var}{self.point}"


@dataclass
class Event:
    """One executed rule: the value produced and the values consumed."""

    key: ValueKey
    rule: Rule
    operands: tuple[ValueKey, ...]   # empty for InputRule
    value: object


class SystemTrace:
    """Full record of a system execution.

    ``events`` maps every produced value to its :class:`Event`;
    ``results`` maps host output keys to final values;
    ``domains`` holds the enumerated domain of each module; ``plan`` is the
    :class:`ExecutionPlan` the trace was executed from, when there is one.

    Event materialization is *lazy*: :func:`execute_plan` parks the raw
    value buffer on the trace and the per-value :class:`Event` objects are
    only built when ``events`` is first read.  Verification value-passes,
    sweeps and microcode compilation, which consume only ``results`` or
    the plan, never pay for them; consumers of the dependence record (the
    dependence graph, the reference oracles) see exactly the dict the eager
    evaluator used to build.
    """

    def __init__(self, system: RecurrenceSystem, params: dict[str, int],
                 events: "dict[ValueKey, Event] | None" = None,
                 results: "dict[tuple[int, ...], object] | None" = None,
                 domains: "dict[str, list[tuple[int, ...]]] | None" = None,
                 plan: "ExecutionPlan | None" = None):
        self.system = system
        self.params = params
        self.plan = plan
        self.results: dict[tuple[int, ...], object] = (
            results if results is not None else {})
        self._domains = domains
        self._events: dict[ValueKey, Event] = (
            events if events is not None else {})
        #: deferred event source: ``(plan, values)`` — consumed on first
        #: ``events`` access.
        self._pending: "tuple[ExecutionPlan, list[object]] | None" = None

    @property
    def domains(self) -> "dict[str, list[tuple[int, ...]]]":
        if self._domains is None:
            self._domains = self.plan.domains if self.plan is not None else {}
        return self._domains

    @domains.setter
    def domains(self, value: "dict[str, list[tuple[int, ...]]]") -> None:
        self._domains = value

    @property
    def events(self) -> "dict[ValueKey, Event]":
        if self._pending is not None:
            plan, values = self._pending
            self._pending = None
            events = self._events
            keys, rules = plan.keys, plan.rules
            operand_keys = plan.operand_keys
            for nid in plan.order_list:
                key = keys[nid]
                events[key] = Event(key, rules[nid], operand_keys[nid],
                                    values[nid])
        return self._events

    @events.setter
    def events(self, value: "dict[ValueKey, Event]") -> None:
        self._events = value
        self._pending = None

    def value(self, key: ValueKey) -> object:
        return self.events[key].value

    def consumers(self) -> dict[ValueKey, list[ValueKey]]:
        """Invert the producer->operand edges: who reads each value."""
        out: dict[ValueKey, list[ValueKey]] = {}
        for event in self.events.values():
            for op_key in event.operands:
                out.setdefault(op_key, []).append(event.key)
        return out


class CyclicDependence(Exception):
    """The system's dependencies contain a cycle (no valid schedule exists)."""


@dataclass(eq=False)
class RuleGroup:
    """The values one rule produces: ids ``start`` to ``stop - 1``, one per
    entry of ``rows`` (ascending rows of the module's point array)."""

    module: str
    var: str
    rule: Rule
    start: int
    rows: np.ndarray
    #: ``(count, arity)`` operand ids; arity 0 for :class:`InputRule`
    operands: np.ndarray
    #: ``(count, k)`` evaluated host index (:class:`InputRule` only)
    index: np.ndarray | None
    #: index into :attr:`ExecutionPlan.streams` of ``(module, var)``
    stream: int

    @property
    def stop(self) -> int:
        return self.start + len(self.rows)


class ExecutionPlan:
    """Value-independent execution structure of one (system, params) pair.

    Every value has one dense int id.  Ids are allotted rule group by rule
    group (:class:`RuleGroup`), so the whole plan is a handful of int64
    arrays: per group its point rows, operand ids and host index rows; for
    the plan a dependence-respecting evaluation ``order`` of all ids and
    the host outputs as ``(host key, value id)`` pairs.  Microcode
    compilation and lowering index these arrays directly; the per-id Python
    views (``keys``, ``rules``, ``operands``, ``input_calls``, ...) are
    built on first use.
    """

    def __init__(self, system: RecurrenceSystem, params: dict[str, int],
                 points: dict[str, np.ndarray], groups: list[RuleGroup],
                 streams: list[tuple[str, str]], order: np.ndarray,
                 outputs: list[tuple[tuple[int, ...], int]]):
        self.system = system
        self.params = params
        self.points = points
        self.groups = groups
        self.streams = streams
        self.order = order
        self.outputs = outputs
        self.node_count = groups[-1].stop if groups else 0
        self._starts = np.array([g.start for g in groups], dtype=np.int64)

    def group_at(self, vid: int) -> RuleGroup:
        """The rule group value ``vid`` belongs to."""
        return self.groups[int(np.searchsorted(self._starts, vid,
                                               side="right")) - 1]

    def key(self, vid: int) -> ValueKey:
        """One value's identity, without building :attr:`keys`."""
        group = self.group_at(vid)
        row = int(group.rows[vid - group.start])
        return ValueKey(group.module, group.var,
                        tuple(self.points[group.module][row].tolist()))

    @cached_property
    def group_of(self) -> np.ndarray:
        """Rule-group index of every id."""
        return np.repeat(np.arange(len(self.groups), dtype=np.int64),
                         [len(g.rows) for g in self.groups])

    @cached_property
    def stream_of(self) -> np.ndarray:
        """:attr:`streams` index of every id."""
        return np.array([g.stream for g in self.groups],
                        dtype=np.int64)[self.group_of]

    @cached_property
    def order_list(self) -> list[int]:
        return self.order.tolist()

    @cached_property
    def output_ids(self) -> np.ndarray:
        return np.array([vid for _, vid in self.outputs], dtype=np.int64)

    @cached_property
    def keys(self) -> list[ValueKey]:
        out: list[ValueKey] = []
        for g in self.groups:
            module, var = g.module, g.var
            out.extend(ValueKey(module, var, p) for p in
                       map(tuple, self.points[module][g.rows].tolist()))
        return out

    @cached_property
    def rules(self) -> list[Rule]:
        out: list[Rule] = []
        for g in self.groups:
            out.extend([g.rule] * len(g.rows))
        return out

    @cached_property
    def operands(self) -> list[tuple[int, ...]]:
        out: list[tuple[int, ...]] = []
        for g in self.groups:
            out.extend(map(tuple, g.operands.tolist()))
        return out

    @cached_property
    def operand_keys(self) -> list[tuple[ValueKey, ...]]:
        keys = self.keys
        return [tuple(keys[o] for o in ops) for ops in self.operands]

    @cached_property
    def input_calls(self) -> list[tuple[str, tuple[int, ...]] | None]:
        out: list[tuple[str, tuple[int, ...]] | None] = []
        for g in self.groups:
            if g.index is None:
                out.extend([None] * len(g.rows))
            else:
                name = g.rule.input_name
                out.extend((name, idx) for idx in map(tuple, g.index.tolist()))
        return out

    @cached_property
    def domains(self) -> dict[str, list[tuple[int, ...]]]:
        return {name: list(map(tuple, pts.tolist()))
                for name, pts in self.points.items()}


def _guard_rows(rule_guard, dims, pts, rows, params) -> np.ndarray:
    """Indices (into ``pts``) of ``rows`` where the guard holds; falls back
    to the scalar path for atom kinds the vectoriser does not know."""
    if rule_guard.is_true():
        return rows
    sub = pts[rows]
    try:
        mask = predicate_mask(rule_guard, dims, sub, params)
    except TypeError:
        binding = dict(params)
        mask = np.empty(len(rows), dtype=bool)
        for pos, row in enumerate(sub.tolist()):
            binding.update(zip(dims, row))
            mask[pos] = rule_guard.holds(binding)
    return rows[mask]


def _index_rows(index_exprs, dims, pts, params) -> np.ndarray:
    """One reference's index expressions over a point array, as a
    ``(len(pts), len(index_exprs))`` int64 array."""
    cols = [eval_index_int(e, dims, pts, params) for e in index_exprs]
    if not cols:
        return np.zeros((len(pts), 0), dtype=np.int64)
    return np.column_stack(cols).astype(np.int64, copy=False)


class _PointIndex:
    """Row of a point in one module's point array: a binary search over
    the points' mixed-radix codes within their bounding box."""

    def __init__(self, pts: np.ndarray):
        self.count, self.ndim = pts.shape
        if self.count == 0 or self.ndim == 0:
            return
        self.lo = pts.min(axis=0)
        self.shape = tuple((pts.max(axis=0) - self.lo + 1).tolist())
        codes = np.ravel_multi_index(tuple((pts - self.lo).T), self.shape)
        self.perm = np.argsort(codes, kind="stable")
        self.codes = codes[self.perm]

    def rows(self, query: np.ndarray) -> np.ndarray:
        """Row of every query point, ``-1`` where it is not a point."""
        out = np.full(len(query), -1, dtype=np.int64)
        if self.count == 0 or len(query) == 0 or query.shape[1] != self.ndim:
            return out
        if self.ndim == 0:
            out[:] = 0
            return out
        rel = query - self.lo
        inside = np.all((rel >= 0) & (rel < np.array(self.shape)), axis=1)
        codes = np.ravel_multi_index(tuple(rel[inside].T), self.shape)
        at = np.minimum(np.searchsorted(self.codes, codes), self.count - 1)
        out[inside] = np.where(self.codes[at] == codes, self.perm[at], -1)
        return out


def _fifo_order(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The order a first-in-first-out Kahn worklist visits ``n`` nodes over
    the edges ``src -> dst`` (parallel edges counted), seeded with the
    sources in ascending id order and enqueueing each node's consumers in
    ascending id order; shorter than ``n`` when the edges close a cycle.

    Computed one frontier at a time: the nodes that become ready while one
    frontier is popped form the next, ordered by the queue position of
    the predecessor that readied them, then by id — exactly the order the
    worklist enqueues them in."""
    remaining = np.bincount(dst, minlength=n)
    by_src = dst[np.argsort(src, kind="stable")]
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=ptr[1:])
    pos = np.empty(n, dtype=np.int64)
    frontier = np.flatnonzero(remaining == 0)
    pos[frontier] = np.arange(len(frontier))
    parts = [frontier]
    placed = len(frontier)
    while len(frontier):
        starts = ptr[frontier]
        counts = ptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        first = np.repeat(starts - np.cumsum(counts) + counts, counts)
        targets = by_src[first + np.arange(total)]
        ready_at, inverse, hits = np.unique(targets, return_inverse=True,
                                            return_counts=True)
        remaining[ready_at] -= hits
        trigger = np.full(len(ready_at), -1, dtype=np.int64)
        np.maximum.at(trigger, inverse.ravel(),
                      np.repeat(pos[frontier], counts))
        ready = remaining[ready_at] == 0
        ready_at, trigger = ready_at[ready], trigger[ready]
        frontier = ready_at[np.lexsort((ready_at, trigger))]
        pos[frontier] = placed + np.arange(len(frontier))
        placed += len(frontier)
        parts.append(frontier)
    return np.concatenate(parts)


def select_rules(system: RecurrenceSystem, params: Mapping[str, int]
                 ) -> list[tuple[str, str, int, Rule, np.ndarray]]:
    """Which rule defines each value, by vectorised first-match over the
    guards: one ``(module, var, rule index, rule, rows)`` entry per rule
    that fires, in module, equation, rule order, with the ascending rows of
    the module's ``points_array`` it fires at.  A defined point no guard
    covers raises the ``ValueError`` of :meth:`Equation.select`."""
    selection: list[tuple[str, str, int, Rule, np.ndarray]] = []
    for name, module in system.modules.items():
        pts = module.domain.points_array(params)
        dims = module.dims
        all_rows = np.arange(pts.shape[0])
        for var, eqn in module.equations.items():
            remaining = _guard_rows(eqn.where, dims, pts, all_rows, params)
            for rule_idx, rule in enumerate(eqn.rules):
                if len(remaining) == 0:
                    break
                chosen = _guard_rows(rule.guard, dims, pts, remaining, params)
                if len(chosen):
                    mask = np.ones(len(remaining), dtype=bool)
                    mask[np.searchsorted(remaining, chosen)] = False
                    remaining = remaining[mask]
                    selection.append((name, var, rule_idx, rule, chosen))
            if len(remaining):
                row = pts[int(remaining[0])].tolist()
                binding = {**params, **dict(zip(dims, row))}
                eqn.select(binding)  # raises ValueError("no rule guard holds")
    return selection


def build_execution_plan(system: RecurrenceSystem,
                         params: Mapping[str, int]) -> ExecutionPlan:
    """Resolve rules, operands and evaluation order — no values involved."""
    params = dict(params)
    points = {name: module.domain.points_array(params)
              for name, module in system.modules.items()}
    # Pass 1 — rule selection (shared with the global link constraints).
    selection = select_rules(system, params)
    indexes: dict[str, _PointIndex] = {}

    def point_index(name: str) -> _PointIndex:
        index = indexes.get(name)
        if index is None:
            index = indexes[name] = _PointIndex(points[name])
        return index

    def scalar_error(key: ValueKey):
        """Re-raise the exact error the recursive evaluator produced for a
        reference that resolves to no computed value."""
        if key.module not in points:
            raise KeyError(key.module)
        query = np.array([key.point], dtype=np.int64).reshape(1, -1)
        if point_index(key.module).rows(query)[0] < 0:
            raise KeyError(
                f"reference to {key} outside the domain of module {key.module}")
        module = system.modules[key.module]
        binding = {**params, **dict(zip(module.dims, key.point))}
        eqn = module.equations.get(key.var)
        if eqn is None:
            raise KeyError(f"no equation for {key.module}::{key.var}")
        eqn.select(binding)  # raises ValueError (undefined / no guard)
        raise KeyError(f"unresolvable reference to {key}")  # pragma: no cover

    # Dense ids, rule group by rule group (rows ascending); ``var_ids``
    # maps a (module, var) and a point row to its id (-1: undefined).
    var_ids: dict[tuple[str, str], np.ndarray] = {}
    streams: dict[tuple[str, str], int] = {}
    starts: list[int] = []
    cursor = 0
    for name, var, _, _, rows in selection:
        ids = var_ids.get((name, var))
        if ids is None:
            ids = var_ids[(name, var)] = np.full(len(points[name]), -1,
                                                 dtype=np.int64)
            streams[(name, var)] = len(streams)
        ids[rows] = np.arange(cursor, cursor + len(rows))
        starts.append(cursor)
        cursor += len(rows)
    n = cursor

    def resolve(module: str, var: str, query: np.ndarray) -> np.ndarray:
        """Ids of ``module::var`` at the query points (-1: no value)."""
        ids = var_ids.get((module, var))
        if module not in points or ids is None:
            return np.full(len(query), -1, dtype=np.int64)
        rows = point_index(module).rows(query)
        return np.where(rows >= 0, ids[rows], -1)

    def first_missing(found: np.ndarray) -> int:
        missing = np.flatnonzero(found < 0)
        return int(missing[0]) if len(missing) else -1

    # Pass 2 — operand resolution per rule group, vectorised over the
    # group's point rows.
    groups: list[RuleGroup] = []
    for (name, var, _, rule, rows), start in zip(selection, starts):
        module = system.modules[name]
        dims = module.dims
        sub = points[name][rows]
        index = None
        if isinstance(rule, InputRule):
            index = _index_rows(rule.index, dims, sub, params)
            operands = np.zeros((len(rows), 0), dtype=np.int64)
        elif isinstance(rule, LinkRule):
            src = rule.source
            query = _index_rows(src.index, dims, sub, params)
            operands = resolve(src.module, src.var, query)[:, None]
            bad = first_missing(operands[:, 0])
            if bad >= 0:
                scalar_error(ValueKey(src.module, src.var,
                                      tuple(query[bad].tolist())))
        else:  # ComputeRule
            queries = [_index_rows(ref.index, dims, sub, params)
                       for ref in rule.operands]
            cols = [resolve(name, ref.var, query)
                    for ref, query in zip(rule.operands, queries)]
            operands = (np.column_stack(cols) if cols
                        else np.zeros((len(rows), 0), dtype=np.int64))
            bad = first_missing(operands.min(axis=1) if cols
                                else np.zeros(0, dtype=np.int64))
            if bad >= 0:
                ref_pos = int(np.argmax(operands[bad] < 0))
                scalar_error(ValueKey(
                    name, rule.operands[ref_pos].var,
                    tuple(queries[ref_pos][bad].tolist())))
        groups.append(RuleGroup(name, var, rule, start, rows, operands,
                                index, streams[(name, var)]))

    # Pass 3 — iterative worklist (Kahn) over the dependence-id graph.
    consumers = [np.repeat(np.arange(g.start, g.stop), g.operands.shape[1])
                 for g in groups]
    sources = [g.operands.ravel() for g in groups]
    order = _fifo_order(
        n,
        np.concatenate(sources) if sources else np.zeros(0, np.int64),
        np.concatenate(consumers) if consumers else np.zeros(0, np.int64))
    plan = ExecutionPlan(system=system, params=params, points=points,
                         groups=groups, streams=list(streams), order=order,
                         outputs=[])
    if len(order) < n:
        done = np.zeros(n, dtype=bool)
        done[order] = True
        stuck = int(np.argmin(done))
        raise CyclicDependence(f"cycle through {plan.key(stuck)}")

    for out in system.outputs:
        out_pts = out.domain.points_array(params)
        host_rows = _index_rows(out.key, out.domain.dims, out_pts, params)
        found = resolve(out.module, out.var, out_pts)
        bad = first_missing(found)
        if bad >= 0:
            scalar_error(ValueKey(out.module, out.var,
                                  tuple(out_pts[bad].tolist())))
        plan.outputs.extend(zip(map(tuple, host_rows.tolist()),
                                found.tolist()))
    return plan


def execute_plan(plan: ExecutionPlan,
                 inputs: Mapping[str, Callable]) -> SystemTrace:
    """One linear pass over the plan's pre-ordered node table."""
    missing = set(plan.system.input_names) - set(inputs)
    if missing:
        raise KeyError(f"missing input bindings: {sorted(missing)}")
    trace = SystemTrace(plan.system, dict(plan.params), plan=plan)
    values: list[object] = [None] * plan.node_count
    rules = plan.rules
    operands = plan.operands
    input_calls = plan.input_calls
    for nid in plan.order_list:
        rule = rules[nid]
        if type(rule) is ComputeRule:
            ops = operands[nid]
            values[nid] = rule.op(*[values[i] for i in ops])
        elif type(rule) is LinkRule:
            values[nid] = values[operands[nid][0]]
        else:  # InputRule
            name, idx = input_calls[nid]
            values[nid] = inputs[name](*idx)
    trace._pending = (plan, values)
    for host_key, nid in plan.outputs:
        trace.results[host_key] = values[nid]
    return trace


def trace_execution(system: RecurrenceSystem, params: Mapping[str, int],
                    inputs: Mapping[str, Callable]) -> SystemTrace:
    """Execute the system and record every event.

    ``inputs`` binds each declared input name to a callable receiving the
    evaluated index of the :class:`InputRule`.
    """
    missing = set(system.input_names) - set(inputs)
    if missing:
        raise KeyError(f"missing input bindings: {sorted(missing)}")
    return execute_plan(build_execution_plan(system, params), inputs)


def run_system(system: RecurrenceSystem, params: Mapping[str, int],
               inputs: Mapping[str, Callable]) -> dict[tuple[int, ...], object]:
    """Execute and return only the host results."""
    return trace_execution(system, params, inputs).results


def structural_trace(system: RecurrenceSystem,
                     params: Mapping[str, int],
                     plan: ExecutionPlan | None = None) -> SystemTrace:
    """Dependence-only trace: every event carries ``value=None``.

    Placement and routing (:func:`~repro.machine.microcode.compile_design`)
    read only the trace's plan, so this is enough to validate a design's
    physical feasibility — channel capacity, locality, causality — without
    binding any host inputs.  ``plan`` is the system's execution plan for
    ``params`` when the caller already holds one; it is built otherwise."""
    if plan is None:
        plan = build_execution_plan(system, params)
    trace = SystemTrace(system, dict(plan.params), plan=plan)
    trace._pending = (plan, [None] * plan.node_count)
    return trace
