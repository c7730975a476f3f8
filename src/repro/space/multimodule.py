"""Joint space mapping of a multi-module system (Section V.B).

"Again, we look for separate solutions to the different modules in the
algorithm subject to global constraints.  ...  if a global dependence
involves two variables belonging to different modules which are computed at
times t and t' with t - t' = d then the distance of the cells where the two
variables will be mapped cannot be more than d."

The solver backtracks over modules; per module the locally feasible space
maps come from :func:`repro.space.allocation.enumerate_space_maps`, and each
global constraint is checked as soon as both endpoints are mapped.  The
objective is the total number of distinct cells — the paper's Section VI
motivation for the new design is exactly processor count.

The search is table-driven.  One BFS gives the link-hop count of every
displacement a constraint can ask about; each candidate's endpoint cells
are one int64 key per instance, so the verdicts of one assigned candidate
against all of the other module's candidates are a subtraction, a gather
and a comparison — a boolean *compatibility row*.  Each level of the
backtracking ANDs the rows of its constraints and visits only the
surviving candidates (forward checking), in the same order as an
unfiltered loop.  Occupied cells are sorted int64 keys, so the cell count
of an assignment is the size of a union of arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.deps.vectors import DependenceMatrix
from repro.obs import TRACER
from repro.schedule.constraints import GlobalConstraint
from repro.schedule.linear import LinearSchedule
from repro.space.allocation import (
    SpaceMap,
    entry_preference,
    enumerate_space_maps,
)
from repro.space.diophantine import LinkDecomposer
from repro.util.errors import SynthesisError


class NoSpaceMapExists(SynthesisError):
    """No joint allocation satisfies the local and global constraints."""


@dataclass
class ModuleSpaceProblem:
    """Allocation view of one module."""

    name: str
    dims: tuple[str, ...]
    deps: DependenceMatrix | None
    points: np.ndarray
    schedule: LinearSchedule
    bound: int = 1
    offsets: Sequence[int] = (0,)

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=np.int64)


@dataclass(frozen=True)
class MultiSpaceSolution:
    maps: dict[str, SpaceMap]
    total_cells: int
    candidates_examined: int


def adjacency_ok(gc: GlobalConstraint,
                 dst_sched: LinearSchedule, src_sched: LinearSchedule,
                 dst_map: SpaceMap, src_map: SpaceMap,
                 decomposer: LinkDecomposer) -> bool:
    """Check constraint (10) for every enumerated instance of a link: each
    displacement must be link-reachable within its time gap."""
    if gc.instances == 0:
        return True
    gaps = dst_sched.times(gc.dst_points) - src_sched.times(gc.src_points)
    disp = dst_map.cells(gc.dst_points) - src_map.cells(gc.src_points)
    return all(decomposer.reachable_within(tuple(d), gap)
               for d, gap in zip(disp.tolist(), gaps.tolist()))


def _endpoint_cells(cands: Sequence[SpaceMap], points: np.ndarray
                    ) -> np.ndarray:
    """Cells of ``points`` under every candidate: ``(candidates, points,
    label_dim)``, in one broadcast matmul."""
    mats = np.array([cand.matrix for cand in cands], dtype=np.int64)
    offs = np.array([cand.offset for cand in cands], dtype=np.int64)
    return points @ mats.transpose(0, 2, 1) + offs[:, None, :]


def solve_multimodule_space(problems: Sequence[ModuleSpaceProblem],
                            constraints: Sequence[GlobalConstraint],
                            decomposer: LinkDecomposer,
                            label_dim: int) -> MultiSpaceSolution:
    """Find the joint allocation minimising total distinct cells.

    Deterministic: candidates enumerate in a fixed order and ties break on
    the lexicographically smallest concatenated matrices.
    """
    order = list(problems)
    by_name = {p.name: p for p in order}
    position = {p.name: idx for idx, p in enumerate(order)}
    check_at: dict[int, list[int]] = {}
    for gi, gc in enumerate(constraints):
        if gc.dst_module not in by_name or gc.src_module not in by_name:
            raise KeyError(f"constraint {gc.name} references unknown module")
        at = max(position[gc.dst_module], position[gc.src_module])
        check_at.setdefault(at, []).append(gi)

    candidate_lists: dict[str, list[SpaceMap]] = {}
    with TRACER.span("space.enumerate"):
        for p in order:
            cands = enumerate_space_maps(
                p.dims, label_dim, p.deps, p.schedule, decomposer, p.points,
                bound=p.bound, offsets=p.offsets)
            if not cands:
                raise NoSpaceMapExists(
                    f"module {p.name}: no locally feasible space map "
                    f"(bound={p.bound}, offsets={tuple(p.offsets)})",
                    module=p.name, bounds=(p.bound, tuple(p.offsets)))
            candidate_lists[p.name] = cands

    with TRACER.span("space.tables"):
        # Occupied cells of every candidate as sorted mixed-radix keys, and
        # its tie-break key fragment.  The radix covers |cell| <= cell_max
        # in every coordinate of every candidate.
        cell_max = 0
        for p in order:
            if len(p.points):
                cands = candidate_lists[p.name]
                mats = np.abs([cand.matrix for cand in cands])
                offs = np.abs([cand.offset for cand in cands])
                cell_max = max(cell_max, int(
                    (mats @ np.abs(p.points).max(axis=0) + offs).max()))
        cell_radix = (2 * cell_max + 1) ** np.arange(
            label_dim - 1, -1, -1, dtype=np.int64)
        cand_cells: list[list[np.ndarray]] = []
        cand_key: list[list[tuple]] = []
        for p in order:
            cells_list = []
            key_list = []
            for cand in candidate_lists[p.name]:
                cells = (cand.cells(p.points) + cell_max) @ cell_radix \
                    if len(p.points) else np.zeros(0, dtype=np.int64)
                cells_list.append(np.unique(cells))
                key_list.append(tuple(
                    entry_preference(entry)
                    for row, off in zip(cand.matrix, cand.offset)
                    for entry in row + (off,)))
            cand_cells.append(cells_list)
            cand_key.append(key_list)

        # Constraint (10) tables.  Per constraint: instance gaps (schedules
        # are fixed for the whole solve) and endpoint cells of every
        # candidate; one box bounds every (dst cell - src cell)
        # displacement, and one BFS gives the hop count of each.
        linked = [gi for gi, gc in enumerate(constraints) if gc.instances]
        gaps: dict[int, np.ndarray] = {}
        ends: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for gi in linked:
            gc = constraints[gi]
            gaps[gi] = (by_name[gc.dst_module].schedule.times(gc.dst_points)
                        - by_name[gc.src_module].schedule.times(gc.src_points))
            ends[gi] = (
                _endpoint_cells(candidate_lists[gc.dst_module],
                                gc.dst_points),
                _endpoint_cells(candidate_lists[gc.src_module],
                                gc.src_points))
        dst_keys: dict[int, np.ndarray] = {}
        src_keys: dict[int, np.ndarray] = {}
        hops = np.zeros(0, dtype=np.int64)
        if linked:
            lo = np.min([dst.min(axis=(0, 1)) - src.max(axis=(0, 1))
                         for dst, src in ends.values()], axis=0)
            hi = np.max([dst.max(axis=(0, 1)) - src.min(axis=(0, 1))
                         for dst, src in ends.values()], axis=0)
            hops = decomposer.hop_table(
                lo, hi, max(int(gaps[gi].max()) for gi in linked))
            box = hi - lo + 1
            strides = np.array(
                [int(np.prod(box[c + 1:])) for c in range(len(box))],
                dtype=np.int64)
            # index of (dst cell - src cell) = dst key - src key
            for gi, (dst, src) in ends.items():
                dst_keys[gi] = (dst - lo) @ strides
                src_keys[gi] = src @ strides
        del ends

    # Forward checking: the checks at each level are compatibility rows —
    # for a constraint whose other endpoint is already assigned, the
    # boolean vector of this module's candidates that satisfy (10) against
    # it.  Rows are built on first use and cached per (constraint, side,
    # assigned candidate).
    rows: dict[tuple[int, bool, int], np.ndarray] = {}
    # Hot loop: hits are counted locally and charged once after the search.
    cache_hits = 0

    def row(gi: int, dst_assigned: bool, ci: int) -> np.ndarray:
        nonlocal cache_hits
        key = (gi, dst_assigned, ci)
        mask = rows.get(key)
        if mask is None:
            if dst_assigned:
                index = dst_keys[gi][ci] - src_keys[gi]
            else:
                index = dst_keys[gi] - src_keys[gi][ci]
            mask = rows[key] = (hops[index] <= gaps[gi]).all(axis=1)
        else:
            cache_hits += 1
        return mask

    # Per level: a static mask (constraints between a module and itself)
    # and the (constraint, dst side assigned, assigned module position)
    # rows to AND in.
    level_masks: list[np.ndarray] = []
    level_rows: list[list[tuple[int, bool, int]]] = []
    for idx, p in enumerate(order):
        mask = np.ones(len(candidate_lists[p.name]), dtype=bool)
        checks = []
        for gi in check_at.get(idx, []):
            if gi not in gaps:
                continue
            gc = constraints[gi]
            if gc.dst_module == gc.src_module:
                mask &= (hops[dst_keys[gi] - src_keys[gi]]
                         <= gaps[gi]).all(axis=1)
            elif gc.dst_module == p.name:
                checks.append((gi, False, position[gc.src_module]))
            else:
                checks.append((gi, True, position[gc.dst_module]))
        level_masks.append(mask)
        level_rows.append(checks)

    best_count: int | None = None
    best_flat: tuple | None = None
    best_assignment: list[int] | None = None
    examined = 0
    assignment: list[int] = []          # candidate index per module
    depth = len(order)

    def recurse(idx: int, union: np.ndarray) -> None:
        nonlocal best_count, best_flat, best_assignment, examined
        if idx == depth:
            examined += 1
            count = len(union)
            if best_count is None or count <= best_count:
                flat = tuple(entry for m, ci in enumerate(assignment)
                             for entry in cand_key[m][ci])
                if best_count is None or (count, flat) < (best_count,
                                                          best_flat):
                    best_count, best_flat = count, flat
                    best_assignment = list(assignment)
            return
        mask = level_masks[idx]
        for gi, dst_assigned, other in level_rows[idx]:
            mask = mask & row(gi, dst_assigned, assignment[other])
        for ci in np.flatnonzero(mask).tolist():
            assignment.append(ci)
            recurse(idx + 1, np.union1d(union, cand_cells[idx][ci]))
            assignment.pop()

    with TRACER.span("space.search"):
        recurse(0, np.zeros(0, dtype=np.int64))
    if cache_hits:
        TRACER.count("space.adjacency_cache_hits", cache_hits)
    TRACER.count("space.assignments_examined", examined)
    if best_assignment is None:
        raise NoSpaceMapExists(
            "no joint space mapping satisfies the global adjacency constraints")
    maps = {p.name: candidate_lists[p.name][ci]
            for p, ci in zip(order, best_assignment)}
    return MultiSpaceSolution(maps, best_count, examined)
