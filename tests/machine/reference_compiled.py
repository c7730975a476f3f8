"""Reference oracle for lowering: microcode to an integer-indexed program
by interning every value key.

``lower_reference`` is the lowering used before the array-based one in
:mod:`repro.machine.compiled`, kept verbatim apart from its imports and its
result type: it walks the ``Injection``/``Operation``/``Hop`` lists, interns
every ``ValueKey`` and cell to a dense id in first-appearance order, sorts
each (cycle, cell) group with a heap-based Kahn pass and re-enumerates the
output domains.  It returns a :class:`RefLowered`, its own record, so the
oracle shares no code with the production lowering.  Not collected by
pytest (no ``test_`` prefix); ``test_reference_machine.py`` compares the
production code against it, with ids mapped back to value keys.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.ir.arrayeval import eval_index_int
from repro.ir.evaluate import SystemTrace, ValueKey
from repro.machine.errors import MissingOperandError
from repro.machine.simulator import MachineStats
from repro.obs.events import MachineEvent, canonical_order

Cell = tuple[int, ...]

_NEVER = -(10 ** 9)


@dataclass
class RefLowered:
    """What the reference lowering produces, in its own id space."""

    keys: list[ValueKey]
    injections: list[tuple[int, str, tuple[int, ...]]]
    program: list[tuple[int, object, tuple[int, ...]]]
    outputs: list[tuple[tuple[int, ...], int]]
    produced: list[int]
    stats: MachineStats
    strict_error: str | None
    events: "list[MachineEvent] | None" = None


def _order_group(ops: list) -> list:
    """Lexicographic topological order of one cell's same-cycle operations
    (smallest original position first among ready nodes) — the pure-python
    equivalent of the interpreter's networkx ordering."""
    if len(ops) <= 1:
        return ops
    index: dict[ValueKey, int] = {}
    for i, (_, op) in enumerate(ops):
        index[op.key] = i
    indeg = [0] * len(ops)
    edges: list[list[int]] = [[] for _ in ops]
    for i, (_, op) in enumerate(ops):
        for operand in op.operands:
            if operand == op.key:
                continue
            j = index.get(operand)
            if j is not None:
                edges[j].append(i)
                indeg[i] += 1
    ready = [i for i in range(len(ops)) if indeg[i] == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        i = heapq.heappop(ready)
        out.append(ops[i])
        for j in edges[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    if len(out) < len(ops):
        _, op = ops[0]
        raise MissingOperandError(
            f"cyclic intra-cycle dependence at cell {op.cell}, "
            f"cycle {op.cycle}")
    return out


def lower_reference(mc, trace: SystemTrace,
                    reclaim_registers: bool = True,
                    record_events: bool = False) -> RefLowered:
    """Lower microcode to a :class:`RefLowered`.

    Performs all structural validation the interpreter does dynamically
    (operand presence, hop sources, intra-cycle dependence cycles) and
    precomputes the entire :class:`MachineStats` block.  With
    ``record_events`` the cycle-level event stream (injection, fire, hop,
    output, register-reclaim) is also derived structurally — it matches the
    interpreter's live emission event for event.
    """
    first, last = mc.first_cycle, mc.last_cycle
    injections = [e for e in mc.injections if first <= e.cycle <= last]
    operations = [op for op in mc.operations if first <= op.cycle <= last]
    hops = [h for h in mc.hops if first <= h.cycle <= last]

    key_ids: dict[ValueKey, int] = {}
    keys: list[ValueKey] = []

    def intern(key: ValueKey) -> int:
        vid = key_ids.get(key)
        if vid is None:
            vid = key_ids[key] = len(keys)
            keys.append(key)
        return vid

    cell_ids: dict[Cell, int] = {}

    def intern_cell(cell: Cell) -> int:
        cid = cell_ids.get(cell)
        if cid is None:
            cid = cell_ids[cell] = len(cell_ids)
        return cid

    op_records = []   # (cycle, cell_id, op, key_id, operand_ids)
    for op in operations:
        cid = intern_cell(op.cell)
        operand_ids = tuple(intern(o) for o in op.operands)
        op_records.append((op.cycle, cid, op, intern(op.key), operand_ids))
    hop_records = []  # (cycle, src_id, dst_id, key_id, hop)
    for h in hops:
        hop_records.append((h.cycle, intern_cell(h.src), intern_cell(h.dst),
                            intern(h.key), h))
    inj_records = []  # (cycle, cell_id, key_id, event)
    for e in injections:
        inj_records.append((e.cycle, intern_cell(e.cell), intern(e.key), e))

    # Last local use per (cell, value).  Like the interpreter's
    # ``_last_uses`` this scans the *unfiltered* event streams, so an
    # out-of-range read still pins its operand's register.
    last_use: dict[tuple[int, int], int] = {}
    for op in mc.operations:
        cid = intern_cell(op.cell)
        for operand in op.operands:
            pair = (cid, intern(operand))
            if op.cycle > last_use.get(pair, _NEVER):
                last_use[pair] = op.cycle
    for h in mc.hops:
        pair = (intern_cell(h.src), intern(h.key))
        if h.cycle > last_use.get(pair, _NEVER):
            last_use[pair] = h.cycle

    # -- arrival cycles per (cell, value) -----------------------------------
    arrivals: dict[tuple[int, int], list[int]] = {}
    for cycle, cid, vid, _ in inj_records:
        arrivals.setdefault((cid, vid), []).append(cycle)
    for cycle, cid, _, kid, _ in op_records:
        arrivals.setdefault((cid, kid), []).append(cycle)
    for cycle, _, did, kid, _ in hop_records:
        arrivals.setdefault((did, kid), []).append(cycle)
    first_arrival = {pair: min(cs) for pair, cs in arrivals.items()}

    # -- hop validation + capacity replay (interpreter's phase-1 order) -----
    # A hop reads the pre-cycle register state, so its source value must
    # have arrived *strictly* earlier; reclamation can never have evicted it
    # because the hop itself is a local use.
    violations: list[tuple] = []
    strict_error: str | None = None
    hop_records.sort(key=lambda r: r[0])   # stable: original order per cycle
    link_usage: dict[tuple[int, int, tuple[str, str]], int] = {}
    current_cycle: int | None = None
    for cycle, sid, did, kid, h in hop_records:
        if cycle != current_cycle:
            link_usage.clear()
            current_cycle = cycle
        if first_arrival.get((sid, kid), cycle) >= cycle:
            raise MissingOperandError(
                f"cycle {cycle}: hop of {h.key} out of {h.src} but "
                f"the value is not there")
        channel = (sid, did, h.stream)
        holder = link_usage.get(channel)
        if holder is not None and holder != kid:
            violations.append((cycle, h.src, h.dst, h.stream))
            if strict_error is None:
                strict_error = (f"cycle {cycle}: stream {h.stream} needs "
                                f"link {h.src}->{h.dst} twice")
        link_usage[channel] = kid

    # -- operation ordering + operand validation ----------------------------
    # Cycle-major; within a cycle, cells in first-appearance order; within a
    # cell, lexicographic topological order — the interpreter's schedule.
    groups: dict[tuple[int, int], list] = {}
    group_order: list[tuple[int, int]] = []
    for rec in sorted(op_records, key=lambda r: r[0]):
        gk = (rec[0], rec[1])
        if gk not in groups:
            groups[gk] = []
            group_order.append(gk)
        groups[gk].append((rec[3], rec[2]))
    program: list[tuple[int, object, tuple[int, ...]]] = []
    op_produced: list[tuple[int, int]] = []   # (cycle, value id), in order
    for gk in group_order:
        cycle, cid = gk
        for kid, op in _order_group(groups[gk]):
            operand_ids = tuple(key_ids[o] for o in op.operands)
            for oid, operand in zip(operand_ids, op.operands):
                arrived = first_arrival.get((cid, oid))
                if arrived is None or arrived > cycle:
                    raise MissingOperandError(
                        f"cycle {cycle}, cell {op.cell}: {op.key} needs "
                        f"{operand}, which never reaches the cell in time")
            program.append((kid, op.op, operand_ids))
            op_produced.append((cycle, kid))
    # ``values`` insertion order in the interpreter: per cycle, injections
    # (phase 2) before operations (phase 3).
    seq = [(cycle, 0, pos, vid)
           for pos, (cycle, _, vid, _) in enumerate(inj_records)]
    seq += [(cycle, 1, pos, vid)
            for pos, (cycle, vid) in enumerate(op_produced)]
    seq.sort()
    produced = [vid for _, _, _, vid in seq]
    produced_set = set(produced)

    # -- protected output values (never reclaimed) --------------------------
    protected: set[int] = set()
    system, params = trace.system, trace.params
    for out in system.outputs:
        for p in out.domain.points(params):
            vid = key_ids.get(ValueKey(out.module, out.var, p))
            if vid is not None:
                protected.add(vid)

    # -- register pressure: vectorised interval-overlap sweep ---------------
    # A value occupies a register in a cell from its first arrival until the
    # end-of-cycle reclamation after its last local use (forever when
    # protected or reclamation is off); re-arrivals after reclamation add
    # isolated single-cycle residencies.  The interpreter measures pressure
    # at the end of every cycle *before* reclaiming, which is exactly the
    # overlap count of these closed intervals.
    max_regs = 0
    n_cells = len(cell_ids)
    span = last - first + 1
    if arrivals and n_cells:
        starts: list[int] = []
        ends: list[int] = []
        cells_of: list[int] = []
        for (cid, vid), cycles in arrivals.items():
            a0 = min(cycles)
            if vid in protected or not reclaim_registers:
                release = last
            else:
                release = max(a0, last_use.get((cid, vid), _NEVER))
            starts.append(a0)
            ends.append(min(release, last))
            cells_of.append(cid)
            if len(cycles) > 1:
                for a in cycles:
                    if a > release:
                        starts.append(a)
                        ends.append(a)
                        cells_of.append(cid)
        base = np.asarray(cells_of, dtype=np.int64) * (span + 1) - first
        deltas = np.zeros(n_cells * (span + 1), dtype=np.int64)
        np.add.at(deltas, base + np.asarray(starts, dtype=np.int64), 1)
        np.add.at(deltas, base + np.asarray(ends, dtype=np.int64) + 1, -1)
        max_regs = int(np.cumsum(deltas).max())

    busy = {(cid, cycle) for cycle, cid, _, _, _ in op_records}
    used_cells = {cid for _, cid, _, _ in inj_records}
    used_cells.update(cid for _, cid, _, _, _ in op_records)
    for _, sid, did, _, _ in hop_records:
        used_cells.add(sid)
        used_cells.add(did)

    stats = MachineStats(
        cycles=mc.span, first_cycle=first, last_cycle=last,
        cells_used=len(used_cells), operations=len(op_records),
        hops=len(hop_records), injections=len(inj_records),
        max_registers_per_cell=max_regs, busy_cell_cycles=len(busy),
        capacity_violations=violations)

    # -- host outputs -------------------------------------------------------
    outputs: list[tuple[tuple[int, ...], int]] = []
    output_keys: list[tuple[ValueKey, tuple[int, ...]]] = []
    for out in system.outputs:
        pts = list(out.domain.points(params))
        arr = np.array(pts, dtype=np.int64).reshape(
            len(pts), len(out.domain.dims))
        cols = [eval_index_int(e, out.domain.dims, arr, params)
                for e in out.key]
        host_rows = (list(map(tuple, np.column_stack(cols).tolist()))
                     if cols else [() for _ in pts])
        for p, host_key in zip(pts, host_rows):
            key = ValueKey(out.module, out.var, p)
            vid = key_ids.get(key)
            if vid is None or vid not in produced_set:
                raise MissingOperandError(f"output {key} was never computed")
            outputs.append((host_key, vid))
            output_keys.append((key, host_key))

    # -- structural event stream --------------------------------------------
    # Everything the interpreter emits live is a structural property of the
    # microcode; re-derive it here so a lowered machine can replay the same
    # event log without executing a single value pass.
    events: "list[MachineEvent] | None" = None
    if record_events:
        events = []
        for cycle, _, _, _, h in hop_records:
            events.append(MachineEvent("hop", cycle, h.dst, repr(h.key),
                                       src=h.src, stream=h.stream))
        for cycle, _, _, e in inj_records:
            events.append(MachineEvent("inject", cycle, e.cell, repr(e.key),
                                       name=e.input_name))
        for cycle, _, op, _, _ in op_records:
            events.append(MachineEvent(
                "fire", cycle, op.cell, repr(op.key),
                name=op.op.name if op.op is not None else "copy",
                stream=op.stream))
        for key, host_key in output_keys:
            t_prod, c_prod = mc.placement[key]
            events.append(MachineEvent("output", t_prod, c_prod, repr(key),
                                       name=str(host_key)))
        if reclaim_registers:
            cells_by_id = [None] * len(cell_ids)
            for cell, cid in cell_ids.items():
                cells_by_id[cid] = cell
            for (cid, vid), cycles in arrivals.items():
                if vid in protected:
                    continue
                # End-of-cycle reclamation after the last local use (or on
                # arrival when the value is never read locally); re-arrivals
                # after that point are reclaimed again the cycle they land.
                release = max(min(cycles),
                              last_use.get((cid, vid), _NEVER))
                cell = cells_by_id[cid]
                key_repr = repr(keys[vid])
                if release <= last:
                    events.append(MachineEvent("reclaim", release, cell,
                                               key_repr))
                for a in sorted(set(cycles)):
                    if a > release:
                        events.append(MachineEvent("reclaim", a, cell,
                                                   key_repr))
        events = canonical_order(events)

    return RefLowered(
        keys=keys,
        injections=[(vid, e.input_name, e.input_index)
                    for _, _, vid, e in inj_records],
        program=program, outputs=outputs, produced=produced, stats=stats,
        strict_error=strict_error, events=events)
