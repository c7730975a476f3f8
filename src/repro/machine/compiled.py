"""Compiled execution engine for the systolic machine.

The interpreted simulator (:func:`repro.machine.simulator.run`) replays the
microcode cycle by cycle through dicts of per-cell register files — faithful,
but every hop and operand is a hash lookup and every cycle rescans all
register files for the pressure statistic.  This module *lowers* a
:class:`~repro.machine.microcode.Microcode` once into integer-indexed form:

* values keep the execution plan's dense ids and cells get dense ids, so
  every structural question is a sort or a search over int64 arrays of
  (cell, value) codes — no value key is interned or hashed;
* operand availability, hop sources, channel capacities and register
  residency are validated **structurally** at lowering time — this subsumes
  the interpreter's ``_last_uses`` reclamation and its per-cycle
  ``max_registers_per_cell`` scan, which become a single vectorised
  interval-overlap sweep over (cell, value) residencies;
* the surviving work is a flat, topologically pre-ordered operation table
  (cycle-major, intra-cell dependence order) whose execution is one linear
  pass writing into a dense value buffer — no per-cycle bookkeeping at all.

Because every :class:`MachineStats` field is a *structural* property of the
microcode (independent of the data flowing through it), the whole statistics
block — including the capacity-violation list — is precomputed during
lowering; execution only computes values.  The compiled engine produces
bit-identical ``values``/``results``/``stats`` to the interpreter and raises
the same error types (:class:`MissingOperandError` for structurally
impossible reads, :class:`CapacityError` under ``strict``).

Lowering is value-independent, so a :class:`CompiledMachine` can be executed
many times with different host inputs (the verification engine exploits this
when cross-checking a design over many input seeds).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.ir.evaluate import SystemTrace, ValueKey
from repro.machine.errors import CapacityError, MissingOperandError
from repro.machine.microcode import Microcode, changes, cell_codes, ranges
from repro.machine.simulator import MachineRun, MachineStats
from repro.obs.events import EventSink, MachineEvent, canonical_order

Cell = tuple[int, ...]

_NEVER = -(10 ** 9)


@dataclass
class CompiledMachine:
    """A lowered microcode program plus its precomputed statistics."""

    #: value id -> key, over the execution plan's ids (built on first use)
    keys: Sequence[ValueKey]
    #: pre-evaluated host fetches: (value id, input name, input index)
    injections: list[tuple[int, str, tuple[int, ...]]]
    #: execution-ordered operation table: (destination id, op, operand ids)
    program: list[tuple[int, object, tuple[int, ...]]]
    #: (host result key, value id) pairs
    outputs: list[tuple[tuple[int, ...], int]]
    #: every id that receives a value, in the interpreter's insertion order
    produced: list[int]
    stats: MachineStats
    #: first capacity violation, pre-formatted for the ``strict`` raise
    strict_error: str | None
    #: ``keys[vid]`` for every produced id, aligned with ``produced`` — the
    #: per-execution ``values`` dict zips these instead of re-indexing
    produced_keys: Sequence[ValueKey]
    #: structural event stream (canonical order) — only when the machine
    #: was lowered with ``record_events=True``; value-independent, so one
    #: lowering serves every execution
    events: "list[MachineEvent] | None" = None

    def replay_events(self, sink: "EventSink") -> None:
        """Replay the precomputed structural event stream (requires
        ``lower(..., record_events=True)``) — the same injection / fire /
        hop / output / reclaim vocabulary the interpreter emits live."""
        if self.events is None:
            raise ValueError(
                "machine was lowered without record_events=True; "
                "no event stream to replay")
        for event in self.events:
            sink.emit(event)

    def copy_stats(self) -> MachineStats:
        """A caller-owned copy of the precomputed statistics block."""
        return MachineStats(
            cycles=self.stats.cycles, first_cycle=self.stats.first_cycle,
            last_cycle=self.stats.last_cycle,
            cells_used=self.stats.cells_used,
            operations=self.stats.operations, hops=self.stats.hops,
            injections=self.stats.injections,
            max_registers_per_cell=self.stats.max_registers_per_cell,
            busy_cell_cycles=self.stats.busy_cell_cycles,
            capacity_violations=list(self.stats.capacity_violations))

    def result_dicts(self, buf: "list[object] | Sequence[object]",
                     ) -> tuple[dict, dict]:
        """``(values, results)`` dicts over an executed value buffer, using
        the id tuples precomputed at lowering time."""
        values = dict(zip(self.produced_keys,
                          (buf[vid] for vid in self.produced)))
        results = {host_key: buf[vid] for host_key, vid in self.outputs}
        return values, results

    def execute(self, inputs: Mapping[str, Callable],
                strict: bool = True,
                sink: "EventSink | None" = None,
                want_values: bool = True) -> MachineRun:
        """Run the lowered program: one pass over the operation table.

        ``sink`` replays the precomputed structural event stream (requires
        ``lower(..., record_events=True)``).  ``want_values=False`` skips
        the per-key ``values`` dict (verification reads only ``results``
        and ``stats``), so no value key is ever built.
        """
        if strict and self.strict_error is not None:
            raise CapacityError(self.strict_error)
        if sink is not None:
            self.replay_events(sink)
        buf: list[object] = [None] * len(self.keys)
        for vid, name, idx in self.injections:
            buf[vid] = inputs[name](*idx)
        for vid, op, operand_ids in self.program:
            if op is None:
                buf[vid] = buf[operand_ids[0]]
            else:
                buf[vid] = op(*[buf[i] for i in operand_ids])
        if want_values:
            values, results = self.result_dicts(buf)
        else:
            values = {}
            results = {host_key: buf[vid] for host_key, vid in self.outputs}
        return MachineRun(values, results, self.copy_stats())


def _per_code(codes: np.ndarray, cycles: np.ndarray, latest: bool,
              ) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct ``codes`` and, per code, the earliest (or latest)
    of its ``cycles``."""
    by = np.lexsort((cycles, codes))
    codes, cycles = codes[by], cycles[by]
    pick = changes(codes)           # first entry of every code
    if latest:
        pick = np.r_[pick[1:], True][:len(codes)]
    return codes[pick], cycles[pick]


def _lookup(codes: np.ndarray, table: np.ndarray, query: np.ndarray,
            ) -> tuple[np.ndarray, np.ndarray]:
    """``(table value, found)`` of every query code in sorted ``codes``."""
    if len(codes) == 0:
        return (np.zeros(len(query), dtype=np.int64),
                np.zeros(len(query), dtype=bool))
    at = np.minimum(np.searchsorted(codes, query), len(codes) - 1)
    return table[at], codes[at] == query


def _topological(members: list[tuple[int, tuple[int, ...]]],
                 ) -> "list[int] | None":
    """Lexicographic topological order (smallest position first among
    ready nodes) of one cell's same-cycle operations ``(value id, operand
    ids)``, or ``None`` when they depend on each other cyclically — the
    pure-python equivalent of the interpreter's networkx ordering."""
    index = {vid: i for i, (vid, _) in enumerate(members)}
    indeg = [0] * len(members)
    edges: list[list[int]] = [[] for _ in members]
    for i, (vid, operands) in enumerate(members):
        for operand in operands:
            if operand == vid:
                continue
            j = index.get(operand)
            if j is not None:
                edges[j].append(i)
                indeg[i] += 1
    ready = [i for i in range(len(members)) if indeg[i] == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        i = heapq.heappop(ready)
        out.append(i)
        for j in edges[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    return out if len(out) == len(members) else None


class _Lowering:
    """The array work of one :func:`lower` call.

    Cells get dense ids; a (cell, value) pair is the code
    ``cell * value_count + value``, so residency, last use and first
    arrival are sorted code tables searched in bulk."""

    def __init__(self, mc: Microcode, trace: SystemTrace):
        t = self.t = mc.tables(trace)
        self.n = len(t.keys)
        self.first, self.last = mc.first_cycle, mc.last_cycle
        self.span = self.last - self.first + 1

        def in_range(cycles: np.ndarray) -> np.ndarray:
            return np.flatnonzero((cycles >= self.first)
                                  & (cycles <= self.last))

        self.inj = in_range(t.inj_cycle)
        self.ops = in_range(t.op_cycle)
        # Hops in the interpreter's phase-1 order: by cycle, stable.
        hops = in_range(t.hop_cycle)
        self.hops = hops[np.argsort(t.hop_cycle[hops], kind="stable")]

        codes, _ = cell_codes(t.inj_cell, t.op_cell, t.hop_src, t.hop_dst)
        cells, dense = np.unique(np.concatenate(codes), return_inverse=True)
        dense = dense.ravel()
        self.n_cells = len(cells)
        bounds = np.cumsum([0] + [len(c) for c in codes]).tolist()
        self.inj_cid, self.op_cid, self.src_cid, self.dst_cid = (
            dense[a:b] for a, b in zip(bounds, bounds[1:]))
        self.dense = dense

        # Last local use per (cell, value).  Like the interpreter's
        # ``_last_uses`` this scans the *unfiltered* event streams, so an
        # out-of-range read still pins its operand's register.
        reader = np.repeat(np.arange(len(t.op_id)), np.diff(t.op_ptr))
        n = self.n
        self.use_codes, self.last_use = _per_code(
            np.concatenate([self.op_cid[reader] * n + t.op_args,
                            self.src_cid * n + t.hop_id]),
            np.concatenate([t.op_cycle[reader], t.hop_cycle]), latest=True)

        # Every arrival of a value in a cell: injections, operations and
        # hop destinations, in range.
        inj, ops, hops = self.inj, self.ops, self.hops
        self.arrival_code = np.concatenate([
            self.inj_cid[inj] * n + t.inj_id[inj],
            self.op_cid[ops] * n + t.op_id[ops],
            self.dst_cid[hops] * n + t.hop_id[hops]])
        self.arrival_cycle = np.concatenate([
            t.inj_cycle[inj], t.op_cycle[ops], t.hop_cycle[hops]])
        self.pairs, self.first_arrival = _per_code(
            self.arrival_code, self.arrival_cycle, latest=False)
        self.operands = t.operand_tuples(self.ops)

    def arrived(self, cells: np.ndarray, vids: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray]:
        """First arrival cycle of each (cell, value), and whether any."""
        return _lookup(self.pairs, self.first_arrival, cells * self.n + vids)

    def check_hops(self) -> tuple[list[tuple], "str | None"]:
        """Hop sources must hold the value before the cycle; returns the
        capacity violations and the strict error of the first."""
        t, hops = self.t, self.hops
        cycle = t.hop_cycle[hops]
        # A hop reads the pre-cycle register state, so its source value
        # must have arrived *strictly* earlier; reclamation can never have
        # evicted it because the hop itself is a local use.
        arrived, found = self.arrived(self.src_cid[hops], t.hop_id[hops])
        missing = np.flatnonzero(~found | (arrived >= cycle))
        if len(missing):
            h = hops[missing[0]]
            raise MissingOperandError(
                f"cycle {int(t.hop_cycle[h])}: hop of "
                f"{t.keys[int(t.hop_id[h])]} out of "
                f"{tuple(t.hop_src[h].tolist())} but the value is not there")
        # One value per (link, stream) per cycle: every change of value
        # along a channel within a cycle is a violation.
        channel = ((self.src_cid[hops] * self.n_cells + self.dst_cid[hops])
                   * len(t.streams) + t.hop_stream[hops])
        by = np.lexsort((np.arange(len(hops)), channel, cycle))
        vids = t.hop_id[hops][by]
        again = ~changes(cycle[by], channel[by])
        again[1:] &= vids[1:] != vids[:-1]
        violations = [
            (int(t.hop_cycle[h]), tuple(t.hop_src[h].tolist()),
             tuple(t.hop_dst[h].tolist()), t.streams[int(t.hop_stream[h])])
            for h in hops[np.sort(by[again])].tolist()]
        if not violations:
            return violations, None
        cycle, src, dst, stream = violations[0]
        return violations, (f"cycle {cycle}: stream {stream} needs "
                            f"link {src}->{dst} twice")

    def program_order(self) -> np.ndarray:
        """Execution order of the in-range operations (indices into
        ``self.ops``), validating every operand read.

        Cycle-major; within a cycle, cells in first-appearance order;
        within a cell, program order — made topological (smallest
        position first) in the groups where an operation reads a value a
        later one produces, or where a value is produced twice."""
        t, ops, n = self.t, self.ops, self.n
        count = len(ops)
        pos = np.arange(count)
        cycle, cid, vid = t.op_cycle[ops], self.op_cid[ops], t.op_id[ops]
        by = np.lexsort((pos, cid, cycle))
        new = changes(cycle[by], cid[by])
        group = np.empty(count, dtype=np.int64)
        group[by] = np.cumsum(new) - 1
        heads = by[new]                 # first member of every group
        rank = np.empty(len(heads), dtype=np.int64)
        rank[np.lexsort((heads, cycle[heads]))] = np.arange(len(heads))
        program = np.lexsort((pos, rank[group]))

        lens = np.diff(t.op_ptr)[ops]
        owner = np.repeat(pos, lens)
        args = t.op_args[ranges(t.op_ptr[ops], lens)]
        member = group * n + vid
        by_member = np.argsort(member, kind="stable")
        members = member[by_member]
        read = group[owner] * n + args
        at = np.minimum(np.searchsorted(members, read), max(count - 1, 0))
        inner = (args != vid[owner]) & (members[at] == read)
        backward = inner & (by_member[at] > owner)
        twice = by_member[1:][members[1:] == members[:-1]]
        tangled = np.unique(np.r_[group[owner[backward]], group[twice]])

        cyclic = len(heads)
        ranks = rank[group[program]]
        for g in tangled.tolist():
            a, b = np.searchsorted(ranks, [rank[g], rank[g] + 1]).tolist()
            members_g = program[a:b].tolist()
            order = _topological([(int(vid[i]), self.operands[i])
                                  for i in members_g])
            if order is None:
                cyclic = min(cyclic, int(rank[g]))
            else:
                program[a:b] = [members_g[i] for i in order]

        # Every operand must be in the cell by the operation's cycle; the
        # first failure (or intra-cycle cycle) in program order raises.
        lens = lens[program]
        owner = np.repeat(np.arange(count), lens)
        args = t.op_args[ranges(t.op_ptr[ops[program]], lens)]
        arrived, found = self.arrived(cid[program][owner], args)
        late = np.flatnonzero(~found | (arrived > cycle[program][owner]))
        late_rank = (int(ranks[owner[late[0]]]) if len(late)
                     else len(heads))
        if cyclic < len(heads) and cyclic <= late_rank:
            head = int(heads[np.flatnonzero(rank == cyclic)[0]])
            raise MissingOperandError(
                f"cyclic intra-cycle dependence at cell "
                f"{tuple(t.op_cell[ops[head]].tolist())}, cycle "
                f"{int(cycle[head])}")
        if len(late):
            i = int(program[owner[late[0]]])
            raise MissingOperandError(
                f"cycle {int(cycle[i])}, cell "
                f"{tuple(t.op_cell[ops[i]].tolist())}: "
                f"{t.keys[int(vid[i])]} needs {t.keys[int(args[late[0]])]}, "
                f"which never reaches the cell in time")
        return program

    def release(self, reclaim_registers: bool) -> tuple[np.ndarray, ...]:
        """Per (cell, value) pair: whether it is protected (a host output)
        and the end-of-cycle reclamation after its last local use (or on
        arrival when it is never read locally)."""
        vids = self.pairs % max(self.n, 1)
        protected = np.isin(vids, self.t.plan.output_ids)
        used, has_use = _lookup(self.use_codes, self.last_use, self.pairs)
        reclaim_at = np.maximum(self.first_arrival,
                                np.where(has_use, used, _NEVER))
        release = np.where(protected | (not reclaim_registers), self.last,
                           reclaim_at)
        return protected, reclaim_at, release

    def max_registers(self, release: np.ndarray) -> int:
        """Register pressure: a vectorised interval-overlap sweep.

        A value occupies a register in a cell from its first arrival until
        its release (the last cycle when protected or reclamation is off);
        re-arrivals after the release add isolated single-cycle
        residencies.  The interpreter measures pressure at the end of
        every cycle *before* reclaiming, which is exactly the overlap
        count of these closed intervals."""
        if not len(self.pairs) or not self.n_cells:
            return 0
        pair_of = np.searchsorted(self.pairs, self.arrival_code)
        again = np.flatnonzero(self.arrival_cycle > release[pair_of])
        starts = np.r_[self.first_arrival, self.arrival_cycle[again]]
        ends = np.r_[np.minimum(release, self.last),
                     self.arrival_cycle[again]]
        cells = np.r_[self.pairs, self.arrival_code[again]] // self.n
        base = cells * (self.span + 1) - self.first
        size = self.n_cells * (self.span + 1)
        deltas = (np.bincount(base + starts, minlength=size)
                  - np.bincount(base + ends + 1, minlength=size))
        return int(np.cumsum(deltas).max())

    def events(self, protected: np.ndarray, reclaim_at: np.ndarray,
               reclaim_registers: bool) -> list[MachineEvent]:
        """The interpreter's live event stream, in canonical order."""
        t, n = self.t, self.n
        keys, streams = t.keys, t.streams
        events = []
        for h in self.hops.tolist():
            events.append(MachineEvent(
                "hop", int(t.hop_cycle[h]), tuple(t.hop_dst[h].tolist()),
                repr(keys[int(t.hop_id[h])]),
                src=tuple(t.hop_src[h].tolist()),
                stream=streams[int(t.hop_stream[h])]))
        for i in self.inj.tolist():
            events.append(MachineEvent(
                "inject", int(t.inj_cycle[i]), tuple(t.inj_cell[i].tolist()),
                repr(keys[int(t.inj_id[i])]), name=t.inj_calls[i][0]))
        for i in self.ops.tolist():
            op, stream = t.kinds[int(t.op_kind[i])]
            events.append(MachineEvent(
                "fire", int(t.op_cycle[i]), tuple(t.op_cell[i].tolist()),
                repr(keys[int(t.op_id[i])]),
                name=op.name if op is not None else "copy", stream=stream))
        for host_key, vid in t.plan.outputs:
            events.append(MachineEvent(
                "output", int(t.time[vid]), tuple(t.cell[vid].tolist()),
                repr(keys[vid]), name=str(host_key)))
        if reclaim_registers:
            # The coordinates of every dense cell id.
            rows = np.concatenate([t.inj_cell, t.op_cell, t.hop_src,
                                   t.hop_dst])
            some_row = np.zeros(self.n_cells, dtype=np.int64)
            some_row[self.dense] = np.arange(len(self.dense))
            cells = list(map(tuple, rows[some_row].tolist()))
            # End-of-cycle reclamation after the last local use (or on
            # arrival when the value is never read locally); re-arrivals
            # after that point are reclaimed again the cycle they land.
            reclaimed = np.flatnonzero(~protected & (reclaim_at <= self.last))
            for p in reclaimed.tolist():
                code = int(self.pairs[p])
                events.append(MachineEvent(
                    "reclaim", int(reclaim_at[p]), cells[code // n],
                    repr(keys[code % n])))
            pair_of = np.searchsorted(self.pairs, self.arrival_code)
            again = (~protected[pair_of]
                     & (self.arrival_cycle > reclaim_at[pair_of]))
            for code, cycle in sorted(set(zip(
                    self.arrival_code[again].tolist(),
                    self.arrival_cycle[again].tolist()))):
                events.append(MachineEvent(
                    "reclaim", cycle, cells[code // n],
                    repr(keys[code % n])))
        return canonical_order(events)


def lower(mc: Microcode, trace: SystemTrace,
          reclaim_registers: bool = True,
          record_events: bool = False) -> CompiledMachine:
    """Lower microcode to a :class:`CompiledMachine`.

    Performs all structural validation the interpreter does dynamically
    (operand presence, hop sources, intra-cycle dependence cycles) and
    precomputes the entire :class:`MachineStats` block.  With
    ``record_events`` the cycle-level event stream (injection, fire, hop,
    output, register-reclaim) is also derived structurally — it matches the
    interpreter's live emission event for event.

    Works on the microcode's
    :class:`~repro.machine.microcode.MicrocodeTables`, in the execution
    plan's value ids, so no value key is built unless an error message or
    the event stream needs it.
    """
    low = _Lowering(mc, trace)
    t, inj, ops = low.t, low.inj, low.ops
    violations, strict_error = low.check_hops()
    program = low.program_order()
    kind_ops = [op for op, _ in t.kinds]
    program_rows = list(zip(
        t.op_id[ops[program]].tolist(),
        [kind_ops[k] for k in t.op_kind[ops[program]].tolist()],
        [low.operands[i] for i in program.tolist()]))
    # ``values`` insertion order in the interpreter: per cycle, injections
    # (phase 2) before operations (phase 3).
    cycles = np.concatenate([t.inj_cycle[inj], t.op_cycle[ops[program]]])
    phase = np.repeat([0, 1], [len(inj), len(ops)])
    seq = np.lexsort((np.r_[np.arange(len(inj)), np.arange(len(ops))],
                      phase, cycles))
    produced_ids = np.concatenate([t.inj_id[inj], t.op_id[ops[program]]])
    produced_ids = produced_ids[seq]

    protected, reclaim_at, release = low.release(reclaim_registers)
    used_cells = np.unique(np.concatenate([
        low.inj_cid[inj], low.op_cid[ops], low.src_cid[low.hops],
        low.dst_cid[low.hops]]))
    busy = np.unique(low.op_cid[ops] * (low.span + 1)
                     + t.op_cycle[ops] - low.first)
    stats = MachineStats(
        cycles=mc.span, first_cycle=low.first, last_cycle=low.last,
        cells_used=len(used_cells), operations=len(ops), hops=len(low.hops),
        injections=len(inj), max_registers_per_cell=low.max_registers(release),
        busy_cell_cycles=len(busy), capacity_violations=violations)

    # -- host outputs -------------------------------------------------------
    plan = t.plan
    is_produced = np.zeros(low.n, dtype=bool)
    is_produced[produced_ids] = True
    never = np.flatnonzero(~is_produced[plan.output_ids])
    if len(never):
        raise MissingOperandError(
            f"output {plan.key(int(plan.output_ids[never[0]]))} was never "
            f"computed")

    # -- structural event stream --------------------------------------------
    # Everything the interpreter emits live is a structural property of the
    # microcode; re-derive it here so a lowered machine can replay the same
    # event log without executing a single value pass.
    events = (low.events(protected, reclaim_at, reclaim_registers)
              if record_events else None)
    produced = produced_ids.tolist()
    return CompiledMachine(
        keys=t.keys,
        injections=[(vid, *t.inj_calls[i])
                    for vid, i in zip(t.inj_id[inj].tolist(), inj.tolist())],
        program=program_rows, outputs=list(plan.outputs), produced=produced,
        stats=stats, strict_error=strict_error,
        produced_keys=t.keys.take(produced), events=events)


def run_compiled(mc: Microcode, trace: SystemTrace,
                 inputs: Mapping[str, Callable], strict: bool = True,
                 reclaim_registers: bool = True,
                 sink: "EventSink | None" = None) -> MachineRun:
    """Lower and execute in one step (the ``engine="compiled"`` path of
    :func:`repro.machine.simulator.run`)."""
    lowered = lower(mc, trace, reclaim_registers,
                    record_events=sink is not None)
    return lowered.execute(inputs, strict, sink=sink)
