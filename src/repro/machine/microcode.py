"""Compile a synthesized design into per-cell, per-cycle microcode.

A design assigns every computation of every module a (time, cell) via its
schedule and space map.  This compiler turns the *structure* of a system
execution — which rule fires at each point and which values it reads, never
the values themselves — into three event streams:

* **injections** — host inputs entering boundary cells at fixed cycles;
* **operations** — a cell applying an op to values in its register file
  (link transfers compile to ``copy`` operations at the destination);
* **hops** — a value moving over exactly one interconnect link per cycle.

Routing policy: a value departs as early as possible after production and
then waits in the destination cell's register file — the classic systolic
"move-then-hold" pattern — but the router is *capacity-aware*: each
(link, stream) channel carries one value per cycle, and a hop that would
collide is pushed later within its slack window (streams whose bandwidth
demand is below 1 always fit; genuinely over-subscribed channels raise
:class:`CapacityError` at compile time).  Multiple consumers of one value
get separate hop chains; identical (value, link, cycle) hops deduplicate,
so a shared prefix is transported once.  Transfers are routed
earliest-deadline-first.

Everything a real array could not do raises: an operand needed before it is
produced (:class:`CausalityError`), a displacement not coverable within the
time slack (:class:`LocalityError`), a channel needed twice in one cycle
with no retiming room (:class:`CapacityError`).

The compiler works on the execution plan's value ids and int64 arrays
(:class:`MicrocodeTables`): placement is one ``T``/``S`` product per module,
transfers sharing a (displacement, gap) share one link decomposition, and
every transfer first takes its earliest slots in bulk; only the transfers
whose channels collide are retimed one by one, in deadline order.  The
``Injection``/``Operation``/``Hop`` lists of :class:`Microcode` are a view
built on first use, for the interpreted simulator, the analytics and
hand-written microcode.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.ir.evaluate import (
    ExecutionPlan,
    SystemTrace,
    ValueKey,
    build_execution_plan,
)
from repro.ir.statements import ComputeRule, InputRule
from repro.machine.errors import CapacityError, CausalityError, LocalityError
from repro.obs import TRACER
from repro.space.diophantine import LinkDecomposer

Cell = tuple[int, ...]

#: Transfers retimed one by one before the router gives up on bulk
#: placement and retimes every transfer (still exact, just slower).
_MAX_RETIMING_ROUNDS = 16


@dataclass(frozen=True)
class Injection:
    """Host writes ``value_of[key]`` into ``cell``'s registers at ``cycle``."""

    key: ValueKey
    cell: Cell
    cycle: int
    input_name: str
    input_index: tuple[int, ...]


@dataclass(frozen=True)
class Operation:
    """``key := op(*operands)`` executed in ``cell`` at ``cycle``.

    ``op`` is ``None`` for a copy (link transfer arriving as a register
    rename).  ``same_cycle`` flags operands produced in this very cell and
    cycle (intra-cycle forwarding; the simulator orders those topologically).
    """

    key: ValueKey
    cell: Cell
    cycle: int
    op: object          # repro.ir.ops.Op or None for copy
    operands: tuple[ValueKey, ...]
    stream: tuple[str, str]   # (module, var) — the physical channel class


@dataclass(frozen=True)
class Hop:
    """``key`` moves from ``src`` over one link to ``dst`` during ``cycle``."""

    key: ValueKey
    src: Cell
    dst: Cell
    cycle: int
    stream: tuple[str, str]


class KeyTable(Sequence):
    """Value id -> :class:`ValueKey`, built on first element access.

    Lengths are known up front, so sizing a value buffer never builds a
    key; error messages, event logs and ``values`` dicts do."""

    __slots__ = ("_length", "_build", "_keys")

    def __init__(self, length: int, build: Callable[[], list[ValueKey]]):
        self._length = length
        self._build = build
        self._keys: "list[ValueKey] | None" = None

    def _list(self) -> list[ValueKey]:
        if self._keys is None:
            self._keys = self._build()
            self._build = None
        return self._keys

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        return self._list()[index]

    def __iter__(self) -> Iterator[ValueKey]:
        return iter(self._list())

    def take(self, ids: Sequence[int]) -> "KeyTable":
        """The keys of ``ids``, in that order (also lazy)."""
        return KeyTable(len(ids), lambda: [self._list()[i] for i in ids])


@dataclass(eq=False)
class MicrocodeTables:
    """The array form of a microcode program, over the plan's value ids.

    Per value id: ``time``/``cell`` placement (``placed`` masks the ids a
    hand-written program leaves unplaced).  Per injection, operation and
    hop: parallel arrays in program order.  An operation's op and stream
    come from ``kinds[op_kind]``, its operand ids are
    ``op_args[op_ptr[i]:op_ptr[i + 1]]``; a hop's stream is
    ``streams[hop_stream]``.  ``keys`` extends the plan's ids with any
    key a hand-written program names that the plan does not have."""

    plan: ExecutionPlan
    keys: KeyTable
    time: np.ndarray
    cell: np.ndarray
    placed: "np.ndarray | None"
    inj_id: np.ndarray
    inj_cycle: np.ndarray
    inj_cell: np.ndarray
    inj_calls: list[tuple[str, tuple[int, ...]]]
    op_id: np.ndarray
    op_cycle: np.ndarray
    op_cell: np.ndarray
    op_kind: np.ndarray
    kinds: list[tuple[object, tuple[str, str]]]
    op_ptr: np.ndarray
    op_args: np.ndarray
    hop_id: np.ndarray
    hop_cycle: np.ndarray
    hop_src: np.ndarray
    hop_dst: np.ndarray
    hop_stream: np.ndarray
    streams: list[tuple[str, str]]
    #: whether every operation reads exactly its value's plan operands
    #: (false for hand-written programs)
    plan_operands: bool = True

    def operand_tuples(self, ops: "np.ndarray | None" = None,
                       ) -> list[tuple[int, ...]]:
        """Operand ids of the operations ``ops`` (default: all), as
        tuples."""
        if ops is None:
            ops = np.arange(len(self.op_id))
        if self.plan_operands:
            operands = self.plan.operands
            return [operands[vid] for vid in self.op_id[ops].tolist()]
        args = self.op_args.tolist()
        ptr = self.op_ptr.tolist()
        return [tuple(args[ptr[i]:ptr[i + 1]]) for i in ops.tolist()]

    def view(self) -> dict:
        """The dataclass view of this program: tuples of injections,
        operations and hops, and the placement dict."""
        keys = self.keys
        cells = _tuples(self.cell)
        times = self.time.tolist()
        ids = (range(len(times)) if self.placed is None
               else np.flatnonzero(self.placed).tolist())
        placement = {keys[i]: (times[i], cells[i]) for i in ids}
        injections = tuple(
            Injection(keys[vid], cell, cycle, name, index)
            for vid, cycle, cell, (name, index) in zip(
                self.inj_id.tolist(), self.inj_cycle.tolist(),
                _tuples(self.inj_cell), self.inj_calls))
        kinds = self.kinds
        operations = []
        for vid, cycle, cell, kind, args in zip(
                self.op_id.tolist(), self.op_cycle.tolist(),
                _tuples(self.op_cell), self.op_kind.tolist(),
                self.operand_tuples()):
            op, stream = kinds[kind]
            operations.append(Operation(keys[vid], cell, cycle, op,
                                        tuple(keys[a] for a in args), stream))
        streams = self.streams
        hops = tuple(Hop(keys[vid], src, dst, cycle, streams[stream])
                     for vid, src, dst, cycle, stream in zip(
                         self.hop_id.tolist(), _tuples(self.hop_src),
                         _tuples(self.hop_dst), self.hop_cycle.tolist(),
                         self.hop_stream.tolist()))
        return {"injections": injections, "operations": tuple(operations),
                "hops": hops, "placement": placement}


def _tuples(rows: np.ndarray) -> list[Cell]:
    return list(map(tuple, rows.tolist()))


def _view_list(name: str, doc: str) -> property:
    def get(self: "Microcode"):
        if self._lists is None:
            self._lists = self._tables.view()
        return self._lists[name]

    def put(self: "Microcode", value) -> None:
        if self._lists is None:
            self._lists = self._tables.view()
        self._lists[name] = value
        self._tables = None

    return property(get, put, doc=doc)


class Microcode:
    """The complete compiled program of the array.

    :func:`compile_design` fills :class:`MicrocodeTables`; the
    ``injections``/``operations``/``hops`` sequences and the ``placement``
    dict are a read-only view of them, built on first read (tuples, so the
    view cannot drift from the tables).  Assigning one of those attributes
    makes the assigned lists the program (hand-written microcode, free to
    mutate): the tables are then rebuilt from the lists on every
    lowering."""

    injections = _view_list("injections", "the :class:`Injection` events")
    operations = _view_list("operations", "the :class:`Operation` events")
    hops = _view_list("hops", "the :class:`Hop` events")
    placement = _view_list(
        "placement", "``{key: (cycle, cell)}`` of every placed value")

    def __init__(self, tables: "MicrocodeTables | None" = None,
                 first_cycle: int = 0, last_cycle: int = 0):
        self._tables = tables
        self._lists: "dict | None" = (
            None if tables is not None else
            {"injections": [], "operations": [], "hops": [],
             "placement": {}})
        self.first_cycle = first_cycle
        self.last_cycle = last_cycle

    @property
    def span(self) -> int:
        """Total execution time in cycles."""
        return self.last_cycle - self.first_cycle + 1

    def tables(self, trace: SystemTrace) -> MicrocodeTables:
        """The array form; hand-written lists are interned against the
        trace's plan (``trace`` is otherwise unused)."""
        if self._tables is not None:
            return self._tables
        plan = trace.plan
        if plan is None:
            plan = build_execution_plan(trace.system, trace.params)
        return _tables_from_lists(self._lists, plan)


def _tables_from_lists(lists: dict, plan: ExecutionPlan) -> MicrocodeTables:
    """Intern hand-written microcode lists into the plan's id space."""
    keys = list(plan.keys)
    key_ids = {key: vid for vid, key in enumerate(keys)}

    def intern(key: ValueKey) -> int:
        vid = key_ids.get(key)
        if vid is None:
            vid = key_ids[key] = len(keys)
            keys.append(key)
        return vid

    injections = lists["injections"]
    operations = lists["operations"]
    hops = lists["hops"]
    placement = lists["placement"]
    cells = ([e.cell for e in injections] + [op.cell for op in operations]
             + [h.src for h in hops] + [c for _, c in placement.values()])
    dim = len(cells[0]) if cells else 0

    def cell_rows(rows: list) -> np.ndarray:
        return np.array(rows, dtype=np.int64).reshape(len(rows), dim)

    inj_id = [intern(e.key) for e in injections]
    kinds: list[tuple[object, tuple[str, str]]] = []
    kind_ids: dict[tuple[int, tuple[str, str]], int] = {}
    op_id, op_kind, op_ptr, op_args = [], [], [0], []
    for op in operations:
        op_id.append(intern(op.key))
        kind = kind_ids.get((id(op.op), op.stream))
        if kind is None:
            kind = kind_ids[(id(op.op), op.stream)] = len(kinds)
            kinds.append((op.op, op.stream))
        op_kind.append(kind)
        op_args.extend(intern(o) for o in op.operands)
        op_ptr.append(len(op_args))
    streams: list[tuple[str, str]] = []
    stream_ids: dict[tuple[str, str], int] = {}
    hop_id, hop_stream = [], []
    for h in hops:
        hop_id.append(intern(h.key))
        stream = stream_ids.get(h.stream)
        if stream is None:
            stream = stream_ids[h.stream] = len(streams)
            streams.append(h.stream)
        hop_stream.append(stream)
    placed_ids = [intern(key) for key in placement]
    n = len(keys)
    time = np.zeros(n, dtype=np.int64)
    cell = np.zeros((n, dim), dtype=np.int64)
    placed = np.zeros(n, dtype=bool)
    if placed_ids:
        time[placed_ids] = [t for t, _ in placement.values()]
        cell[placed_ids] = cell_rows([c for _, c in placement.values()])
        placed[placed_ids] = True

    def ints(values: list) -> np.ndarray:
        return np.array(values, dtype=np.int64)

    return MicrocodeTables(
        plan=plan, keys=KeyTable(n, lambda: keys), time=time, cell=cell,
        placed=placed, inj_id=ints(inj_id),
        inj_cycle=ints([e.cycle for e in injections]),
        inj_cell=cell_rows([e.cell for e in injections]),
        inj_calls=[(e.input_name, e.input_index) for e in injections],
        op_id=ints(op_id), op_cycle=ints([op.cycle for op in operations]),
        op_cell=cell_rows([op.cell for op in operations]),
        op_kind=ints(op_kind), kinds=kinds, op_ptr=ints(op_ptr),
        op_args=ints(op_args), hop_id=ints(hop_id),
        hop_cycle=ints([h.cycle for h in hops]),
        hop_src=cell_rows([h.src for h in hops]),
        hop_dst=cell_rows([h.dst for h in hops]),
        hop_stream=ints(hop_stream), streams=streams, plan_operands=False)


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + length)`` for every pair."""
    total = int(lengths.sum())
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(total)


def changes(*columns: np.ndarray) -> np.ndarray:
    """Flags of the entries where any (sorted) column differs from the
    previous entry; the first entry is flagged."""
    flags = np.zeros(len(columns[0]), dtype=bool)
    if len(flags):
        flags[0] = True
        for column in columns:
            flags[1:] |= column[1:] != column[:-1]
    return flags


def cycle_cell_order(cycles: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Stable sort permutation by (cycle, cell tuple)."""
    keys = [np.arange(len(cycles))]
    keys += [cells[:, d] for d in range(cells.shape[1] - 1, -1, -1)]
    keys.append(cycles)
    return np.lexsort(keys)


def cell_codes(*arrays: np.ndarray) -> tuple[list[np.ndarray], int]:
    """Integer code of every cell row (equal cells, equal codes) within
    their common bounding box, and the box size."""
    rows = np.concatenate(arrays) if arrays else np.zeros((0, 0), np.int64)
    if len(rows) == 0 or rows.shape[1] == 0:
        return [np.zeros(len(a), dtype=np.int64) for a in arrays], 1
    lo = rows.min(axis=0)
    shape = tuple((rows.max(axis=0) - lo + 1).tolist())
    return ([np.ravel_multi_index(tuple((a - lo).T), shape)
             for a in arrays], int(np.prod(shape)))


def compile_design(trace: SystemTrace, schedules: Mapping[str, object],
                   space_maps: Mapping[str, object],
                   decomposer: LinkDecomposer) -> Microcode:
    """Lower a system trace's execution plan onto the array.

    ``schedules`` / ``space_maps`` map module names to
    :class:`~repro.schedule.linear.LinearSchedule` /
    :class:`~repro.space.allocation.SpaceMap`.  Only the trace's plan is
    read (a value-free :func:`~repro.ir.evaluate.structural_trace` is
    enough); a trace without one has its plan built here.
    """
    plan = trace.plan
    if plan is None:
        plan = build_execution_plan(trace.system, trace.params)
    groups = plan.groups
    n = plan.node_count
    dim = (len(next(iter(space_maps.values())).matrix)
           if space_maps else 0)

    # Placement of every value: T and S once per module over its point
    # array, then each rule group takes its rows.
    with TRACER.span("machine.compile.placement"):
        per_module: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        times, cells = [], []
        for g in groups:
            at = per_module.get(g.module)
            if at is None:
                pts = plan.points[g.module]
                at = per_module[g.module] = (
                    schedules[g.module].times(pts),
                    space_maps[g.module].cells(pts))
            times.append(at[0][g.rows])
            cells.append(at[1][g.rows])
        time = (np.concatenate(times).astype(np.int64, copy=False) if times
                else np.zeros(0, dtype=np.int64))
        cell = (np.concatenate(cells).astype(np.int64, copy=False) if cells
                else np.zeros((0, dim), dtype=np.int64))
        first = int(time.min()) if n else 0
        last = int(time.max()) if n else 0

    with TRACER.span("machine.compile.injections"):
        group_of = plan.group_of
        order = plan.order
        is_input = np.array([g.index is not None for g in groups],
                            dtype=bool)
        inj = order[is_input[group_of[order]]]
        inj = inj[cycle_cell_order(time[inj], cell[inj])]
        input_calls = plan.input_calls
        inj_calls = [input_calls[vid] for vid in inj.tolist()]

    with TRACER.span("machine.compile.operations"):
        ops = order[~is_input[group_of[order]]]
        ops = ops[cycle_cell_order(time[ops], cell[ops])]
        arity = np.array([g.operands.shape[1] for g in groups],
                         dtype=np.int64)
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(arity[group_of], out=ptr[1:])
        flat = (np.concatenate([g.operands.ravel() for g in groups])
                if groups else np.zeros(0, dtype=np.int64))
        op_len = ptr[ops + 1] - ptr[ops]
        op_ptr = np.zeros(len(ops) + 1, dtype=np.int64)
        np.cumsum(op_len, out=op_ptr[1:])
        op_args = flat[ranges(ptr[ops], op_len)]
        kinds = [(g.rule.op if isinstance(g.rule, ComputeRule) else None,
                  plan.streams[g.stream]) for g in groups]
        requests = _route_requests(plan, time, cell)

    with TRACER.span("machine.compile.routing"):
        hop_id, hop_cycle, hop_src, hop_dst = _route(
            plan, requests, time, cell, first, last, decomposer)
        hop_stream = plan.stream_of[hop_id]
        if len(hop_cycle):
            first = min(first, int(hop_cycle.min()))
            last = max(last, int(hop_cycle.max()))
        tables = MicrocodeTables(
            plan=plan, keys=KeyTable(n, lambda: plan.keys), time=time,
            cell=cell, placed=None, inj_id=inj, inj_cycle=time[inj],
            inj_cell=cell[inj], inj_calls=inj_calls, op_id=ops,
            op_cycle=time[ops], op_cell=cell[ops], op_kind=group_of[ops],
            kinds=kinds, op_ptr=op_ptr, op_args=op_args, hop_id=hop_id,
            hop_cycle=hop_cycle, hop_src=hop_src, hop_dst=hop_dst,
            hop_stream=hop_stream, streams=plan.streams)
    return Microcode(tables, first, last)


def _route_requests(plan: ExecutionPlan, time: np.ndarray,
                    cell: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every transfer ``(value, consumer, min_gap)`` in the order the plan
    visits consumers (operands in order), with the order as ``(consumer
    position, operand position)``; raises the :class:`CausalityError` of
    the first operand read in its producer's cell before it exists."""
    position = np.empty(plan.node_count, dtype=np.int64)
    position[plan.order] = np.arange(plan.node_count)
    values, consumers, gaps, slots = [], [], [], []
    bad: list[tuple[int, int, str, int, int]] = []
    for g in plan.groups:
        if g.index is not None:
            continue
        consumer = np.arange(g.start, g.stop)
        if not isinstance(g.rule, ComputeRule):     # LinkRule
            values.append(g.operands[:, 0])
            consumers.append(consumer)
            gaps.append(np.full(len(consumer), g.rule.min_gap, np.int64))
            slots.append(np.zeros(len(consumer), dtype=np.int64))
            continue
        t, c = time[consumer], cell[consumer]
        for j in range(g.operands.shape[1]):
            operand = g.operands[:, j]
            same_cell = np.all(cell[operand] == c, axis=1)
            moves = ~(same_cell & (time[operand] == t))
            values.append(operand[moves])
            consumers.append(consumer[moves])
            gaps.append(np.where(same_cell[moves], 0, 1))
            slots.append(np.full(int(moves.sum()), j, dtype=np.int64))
            for kind, mask in (
                    ("self", operand == consumer),
                    ("late", moves & same_cell & (time[operand] >= t))):
                hit = np.flatnonzero(mask)
                if len(hit):
                    first = hit[np.argmin(position[consumer[hit]])]
                    bad.append((int(position[consumer[first]]), j, kind,
                                int(consumer[first]), int(operand[first])))
    if bad:
        _, _, kind, vid, oid = min(bad)
        key = plan.key(vid)
        if kind == "self":
            raise CausalityError(f"{key} depends on itself")
        raise CausalityError(
            f"{key} at t={int(time[vid])} reads {plan.key(oid)} produced "
            f"at t={int(time[oid])}")

    def cat(parts: list) -> np.ndarray:
        return (np.concatenate(parts).astype(np.int64, copy=False) if parts
                else np.zeros(0, dtype=np.int64))

    consumer = cat(consumers)
    return (cat(values), consumer, cat(gaps), position[consumer],
            cat(slots))


def _route(plan: ExecutionPlan, requests, time: np.ndarray,
           cell: np.ndarray, first: int, last: int,
           decomposer: LinkDecomposer) -> tuple[np.ndarray, ...]:
    """Route every transfer; returns the deduplicated hops as ``(value,
    cycle, src, dst)`` arrays sorted by (cycle, src, dst)."""
    value, consumer, min_gap, position, slot = requests
    gap = time[consumer] - time[value]
    # Earliest deadline first; ties keep request order.
    by_deadline = np.lexsort((slot, position, gap, time[consumer]))
    value, consumer = value[by_deadline], consumer[by_deadline]
    min_gap, gap = min_gap[by_deadline], gap[by_deadline]
    t_src, t_dst = time[value], time[consumer]
    c_src = cell[value]
    disp = cell[consumer] - c_src
    moving = np.any(disp != 0, axis=1)
    causal = (gap < min_gap) | ((gap == 0) & moving)

    # One link decomposition per distinct (displacement, gap); the first
    # transfer that cannot be routed stops routing there.
    routable = np.flatnonzero(moving & ~causal)
    shape_rows = np.column_stack([disp[routable], gap[routable]])
    shapes = np.unique(shape_rows, axis=0) if len(routable) else shape_rows
    paths = [decomposer.decompose(tuple(row[:-1]), row[-1])
             for row in shapes.tolist()]
    shape_of = _row_index(shapes, shape_rows)
    blocked = np.array([p is None for p in paths], dtype=bool)[shape_of]
    failed = np.flatnonzero(causal)
    stop = min(int(failed[0]) if len(failed) else len(value),
               int(routable[blocked][0]) if blocked.any() else len(value))
    keep = routable < stop
    routable, shape_of = routable[keep], shape_of[keep]

    dim = cell.shape[1]
    lengths = np.array([0 if p is None else len(p) for p in paths],
                       dtype=np.int64)
    moves = np.array([mv for p in paths if p is not None for mv in p],
                     dtype=np.int64).reshape(-1, dim)
    base = np.cumsum(lengths) - lengths
    before = np.zeros_like(moves)
    for s, length in enumerate(lengths.tolist()):
        chunk = moves[base[s]:base[s] + length]
        before[base[s]:base[s] + length] = np.cumsum(chunk, axis=0) - chunk

    # Every transfer's hops at their earliest cycles.
    per_request = lengths[shape_of]
    hop_first = np.cumsum(per_request) - per_request
    request = np.repeat(routable, per_request)
    step = ranges(np.zeros(len(routable), dtype=np.int64), per_request)
    row = np.repeat(base[shape_of], per_request) + step
    h_value = value[request]
    h_src = c_src[request] + before[row]
    h_dst = h_src + moves[row]
    h_cycle = t_src[request] + 1 + step
    (src_code, dst_code), box = cell_codes(h_src, h_dst)
    stream = plan.stream_of[h_value]
    link = (src_code * box + dst_code) * len(plan.streams) + stream
    window = last - first + 2

    clash = _clashing(link * window + (h_cycle - first), h_value)
    if len(clash):
        def capacity_error(r: int, k: int, earliest: int, latest: int):
            hop = int(hop_first[r]) + k
            req = int(routable[r])
            return CapacityError(
                f"{plan.key(int(value[req]))} -> "
                f"{plan.key(int(consumer[req]))}: channel "
                f"{tuple(h_src[hop].tolist())}->{tuple(h_dst[hop].tolist())}"
                f" of stream {plan.streams[int(stream[hop])]} is saturated "
                f"in cycles [{earliest}, {latest}]")

        h_cycle = _retime(
            np.unique(np.searchsorted(routable, request[clash])),
            per_request, hop_first, h_value, link, h_cycle,
            t_src[routable], t_dst[routable], window, first, capacity_error)
    if stop < len(value):
        _raise_transfer_error(plan, stop, value, consumer, min_gap, t_src,
                              t_dst, gap, disp, moving, causal)

    # One hop per (value, link, cycle), first occurrence first, then
    # sorted by (cycle, src, dst).
    channel = link * window + (h_cycle - first)
    by = np.lexsort((np.arange(len(channel)), h_value, channel))
    unique_at = np.sort(by[changes(channel[by], h_value[by])])
    h_value, h_cycle = h_value[unique_at], h_cycle[unique_at]
    h_src, h_dst = h_src[unique_at], h_dst[unique_at]
    keys = [np.arange(len(h_cycle))]
    keys += [h_dst[:, d] for d in range(dim - 1, -1, -1)]
    keys += [h_src[:, d] for d in range(dim - 1, -1, -1)]
    keys.append(h_cycle)
    final = np.lexsort(keys)
    return h_value[final], h_cycle[final], h_src[final], h_dst[final]


def _row_index(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index of every row of ``rows`` in the sorted unique ``table``."""
    if len(rows) == 0:
        return np.zeros(0, dtype=np.int64)
    (table_code, row_code), _ = cell_codes(table, rows)
    return np.searchsorted(table_code, row_code)


def _clashing(channel: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Indices of hops whose channel some other value also claims."""
    by = np.lexsort((value, channel))
    new_channel = changes(channel[by])
    new_pair = changes(channel[by], value[by])
    starts = np.flatnonzero(new_channel)
    if not len(starts):
        return starts
    values_per_channel = np.add.reduceat(new_pair.astype(np.int64), starts)
    shared = np.repeat(values_per_channel > 1,
                       np.diff(np.r_[starts, len(by)]))
    return by[shared]


def _retime(dirty, per_request, hop_first, h_value, link, h_cycle,
            t_src, t_dst, window, first, capacity_error) -> np.ndarray:
    """Retime the ``dirty`` transfers one by one in deadline order, every
    other transfer keeping its earliest slots; returns the hop cycles.

    A retimed hop that takes the slot of a later clean transfer (another
    value) makes that transfer dirty too, and the pass restarts; after
    ``_MAX_RETIMING_ROUNDS`` restarts every transfer is retimed.  Raises
    the :class:`CapacityError` of the first transfer whose window is full,
    which is the one the one-by-one router would raise."""
    dirty_mask = np.zeros(len(per_request), dtype=bool)
    dirty_mask[dirty] = True
    for rounds in range(_MAX_RETIMING_ROUNDS + 1):
        if rounds == _MAX_RETIMING_ROUNDS:
            dirty_mask[:] = True
        cycles, grown = _retime_round(
            dirty_mask, per_request, hop_first, h_value, link, h_cycle,
            t_src, t_dst, window, first, capacity_error)
        if not grown:
            return cycles
        dirty_mask[grown] = True
    raise AssertionError("unreachable")  # pragma: no cover


def _retime_round(dirty_mask, per_request, hop_first, h_value, link,
                  h_cycle, t_src, t_dst, window, first, capacity_error,
                  ) -> tuple[np.ndarray, list[int]]:
    """One retiming pass over the dirty transfers; returns the hop cycles
    and the clean transfers it found it must retime too (empty when the
    pass is exact)."""
    owner = np.repeat(np.arange(len(per_request)), per_request)
    hop_dirty = dirty_mask[owner]
    held = np.flatnonzero(~hop_dirty & np.isin(link, link[hop_dirty]))
    holders: dict[int, tuple[int, int]] = {}
    for channel, vid, r in zip(
            (link[held] * window + (h_cycle[held] - first)).tolist(),
            h_value[held].tolist(), owner[held].tolist()):
        holders.setdefault(channel, (vid, r))
    cycles = h_cycle.copy()
    reserved: dict[int, int] = {}
    grown: list[int] = []
    for r in np.flatnonzero(dirty_mask).tolist():
        length = int(per_request[r])
        start = int(hop_first[r])
        vid = int(h_value[start])
        deadline = int(t_dst[r])
        t_prev = int(t_src[r])
        for k in range(length):
            base = int(link[start + k]) * window - first
            earliest = t_prev + 1
            latest = deadline - (length - 1 - k)
            cycle = earliest
            while cycle <= latest:
                holder = reserved.get(base + cycle)
                if holder is None:
                    clean = holders.get(base + cycle)
                    if clean is None or clean[0] == vid:
                        break
                    if clean[1] > r:
                        grown.append(clean[1])
                        break
                elif holder == vid:
                    break
                cycle += 1
            else:
                if grown:
                    return cycles, grown
                raise capacity_error(r, k, earliest, latest)
            reserved[base + cycle] = vid
            cycles[start + k] = cycle
            t_prev = cycle
        if grown:
            return cycles, grown
    return cycles, grown


def _raise_transfer_error(plan, r, value, consumer, min_gap, t_src, t_dst,
                          gap, disp, moving, causal) -> None:
    """The :class:`CausalityError` or :class:`LocalityError` of transfer
    ``r`` (in deadline order)."""
    src, dst = plan.key(int(value[r])), plan.key(int(consumer[r]))
    g = int(gap[r])
    if causal[r]:
        need = max(int(min_gap[r]), 1) if moving[r] else int(min_gap[r])
        raise CausalityError(
            f"{dst} at t={int(t_dst[r])} needs {src} produced at "
            f"t={int(t_src[r])} (gap {g} < required {need})")
    raise LocalityError(
        f"{src} -> {dst}: displacement {tuple(disp[r].tolist())} not "
        f"coverable in {g} cycles on this interconnect")
