"""Joint space mapping of a multi-module system (Section V.B).

"Again, we look for separate solutions to the different modules in the
algorithm subject to global constraints.  ...  if a global dependence
involves two variables belonging to different modules which are computed at
times t and t' with t - t' = d then the distance of the cells where the two
variables will be mapped cannot be more than d."

The solver backtracks over modules; each global constraint is checked as
soon as both endpoints are mapped.  The objective is the total number of
distinct cells — the paper's Section VI motivation for the new design is
exactly processor count.

The search works on int64 arrays from enumeration to the final choice.
:class:`JointSpaceSearch` enumerates each module's feasible *base
matrices* once (:func:`~repro.space.allocation.feasible_bases`), with the
cells each base occupies and the endpoint cells of each linked
constraint; a solve crosses them with its offsets.  Candidate ``c`` of a
module with ``O`` offset vectors is base ``c // O`` with offset
``c % O``.  An offset moves every cell alike, so a candidate's cell keys
are its base's keys plus the constant ``offset @ radix``, and its cell
count is its base's.

Constraint (10) is table-driven.  One BFS gives the link-hop count of
every displacement a constraint can ask about; endpoint cells are one
int64 key per instance, so the verdicts of one assigned candidate against
all of the other module's candidates are a subtraction, a gather and a
comparison — a boolean *compatibility row*.  Each level of the
backtracking ANDs the rows of its constraints and visits only the
surviving candidates (forward checking), in candidate order.

Branch-and-bound: the union size of every surviving candidate with the
partial assignment's cells comes from one ``searchsorted`` against the
sorted union.  A partial assignment is pruned only when its union is
*strictly* above the best complete count, so equal counts still reach the
tie-break (lexicographically smallest entry codes).  An exclusive
``upper_bound`` starts the search as if a solution of that count were
known, and a solve whose lower bound reaches it is skipped before its
tables and search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.deps.vectors import DependenceMatrix
from repro.obs import TRACER
from repro.schedule.constraints import GlobalConstraint
from repro.schedule.linear import LinearSchedule
from repro.space.allocation import (
    SpaceMap,
    entry_codes,
    feasible_bases,
    offset_grid,
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


class JointSpaceSearch:
    """The joint space search of one scheduled system, under any
    per-module offsets.

    Construction does, once, everything no offset changes: each module's
    feasible base matrices (``space.enumerate``), the distinct cells each
    base occupies and the endpoint cells of each linked constraint under
    each base (``space.tables``).  The problems' ``offsets`` fields are
    not read; :meth:`solve` takes the offsets per call.
    """

    def __init__(self, problems: Sequence[ModuleSpaceProblem],
                 constraints: Sequence[GlobalConstraint],
                 decomposer: LinkDecomposer, label_dim: int) -> None:
        self.order = list(problems)
        self.constraints = list(constraints)
        self.decomposer = decomposer
        self.label_dim = label_dim
        self.position = {p.name: idx for idx, p in enumerate(self.order)}
        for gc in self.constraints:
            if gc.dst_module not in self.position \
                    or gc.src_module not in self.position:
                raise KeyError(
                    f"constraint {gc.name} references unknown module")

        with TRACER.span("space.enumerate"):
            self.bases = [
                feasible_bases(p.dims, label_dim, p.deps, p.schedule,
                               decomposer, p.points, bound=p.bound)
                for p in self.order]
        if not all(len(bases) for bases in self.bases):
            return                      # every solve raises

        with TRACER.span("space.tables"):
            # Distinct cells of each base, lexicographic, concatenated:
            # base b owns rows starts[b]:starts[b + 1].
            self.cells: list[np.ndarray] = []
            self.starts: list[np.ndarray] = []
            for p, bases in zip(self.order, self.bases):
                cells, starts = _occupied_cells(bases, p.points)
                self.cells.append(cells)
                self.starts.append(starts)
            self.counts = [np.diff(starts) for starts in self.starts]
            #: No assignment occupies fewer cells than its largest module.
            self.lower_bound = max(
                (int(counts.min()) for counts in self.counts), default=0)
            # Constraint (10): instance gaps (schedules are fixed) and the
            # endpoint cells of every instance under every base.
            self.linked = [gi for gi, gc in enumerate(self.constraints)
                           if gc.instances]
            self.gaps: dict[int, np.ndarray] = {}
            self.ends: dict[int, tuple[np.ndarray, np.ndarray]] = {}
            for gi in self.linked:
                gc = self.constraints[gi]
                dst = self.order[self.position[gc.dst_module]]
                src = self.order[self.position[gc.src_module]]
                self.gaps[gi] = (dst.schedule.times(gc.dst_points)
                                 - src.schedule.times(gc.src_points))
                self.ends[gi] = (
                    _endpoint_cells(self.bases[self.position[dst.name]],
                                    gc.dst_points),
                    _endpoint_cells(self.bases[self.position[src.name]],
                                    gc.src_points))

    def solve(self, offsets: Mapping[str, Sequence[int]],
              upper_bound: int | None = None) -> MultiSpaceSolution:
        """The joint allocation minimising total distinct cells, with each
        module's offsets drawn from ``offsets[name]``.

        Deterministic: ties break on the lexicographically smallest
        concatenated matrices and offsets (:func:`entry_codes`, each row
        followed by its offset).  With ``upper_bound``, only assignments
        of fewer than ``upper_bound`` cells count as solutions.  Raises
        :class:`NoSpaceMapExists` when there is none.
        """
        order = self.order
        label_dim = self.label_dim
        grids = [offset_grid(offsets[p.name], label_dim) for p in order]
        for p, bases, grid in zip(order, self.bases, grids):
            if not len(bases) or not len(grid):
                tried = tuple(offsets[p.name])
                raise NoSpaceMapExists(
                    f"module {p.name}: no locally feasible space map "
                    f"(bound={p.bound}, offsets={tried})",
                    module=p.name, bounds=(p.bound, tried))
        if upper_bound is not None and self.lower_bound >= upper_bound:
            raise NoSpaceMapExists(
                f"no joint space mapping with fewer than {upper_bound} "
                f"cells: some module alone occupies {self.lower_bound}")

        with TRACER.span("space.tables"):
            widths = [len(grid) for grid in grids]
            # Occupied cells as mixed-radix keys.  The radix covers
            # |cell| <= half in every coordinate of every candidate, and
            # orders keys like cells, so each base's lexicographic cells
            # are sorted keys and an offset adds a constant.
            half = max((int(np.abs(cells).max(initial=0))
                        for cells in self.cells), default=0) \
                + max((int(np.abs(grid).max()) for grid in grids),
                      default=0)
            radix = (2 * half + 1) ** np.arange(label_dim - 1, -1, -1,
                                                dtype=np.int64)
            keys = [(cells + half) @ radix for cells in self.cells]
            shifts = [grid @ radix for grid in grids]
            codes = [entry_codes(bases) for bases in self.bases]
            off_codes = [entry_codes(grid)[:, :, None] for grid in grids]

            # Constraint (10): one box bounds every (dst cell - src cell)
            # displacement of every candidate pair, and one BFS gives the
            # hop count of each.  The index of a displacement is dst key -
            # src key; offsets add per-candidate constants to both.
            dst_keys: dict[int, np.ndarray] = {}
            src_keys: dict[int, np.ndarray] = {}
            dst_shift: dict[int, np.ndarray] = {}
            src_shift: dict[int, np.ndarray] = {}
            hops = np.zeros(0, dtype=np.int64)
            if self.linked:
                spans = []
                for gi in self.linked:
                    gc = self.constraints[gi]
                    dst, src = self.ends[gi]
                    dgrid = grids[self.position[gc.dst_module]]
                    sgrid = grids[self.position[gc.src_module]]
                    spans.append((
                        dst.min(axis=(0, 1)) + dgrid.min(axis=0)
                        - src.max(axis=(0, 1)) - sgrid.max(axis=0),
                        dst.max(axis=(0, 1)) + dgrid.max(axis=0)
                        - src.min(axis=(0, 1)) - sgrid.min(axis=0)))
                lo = np.min([low for low, _ in spans], axis=0)
                hi = np.max([high for _, high in spans], axis=0)
                hops = self.decomposer.hop_table(
                    lo, hi, max(int(self.gaps[gi].max())
                                for gi in self.linked))
                box = hi - lo + 1
                strides = np.array(
                    [int(np.prod(box[c + 1:])) for c in range(len(box))],
                    dtype=np.int64)
                for gi in self.linked:
                    gc = self.constraints[gi]
                    dst, src = self.ends[gi]
                    dst_keys[gi] = (dst - lo) @ strides
                    src_keys[gi] = src @ strides
                    dst_shift[gi] = \
                        grids[self.position[gc.dst_module]] @ strides
                    src_shift[gi] = \
                        grids[self.position[gc.src_module]] @ strides

        # Forward checking: the checks at each level are compatibility
        # rows — for a constraint whose other endpoint is already
        # assigned, the boolean vector of this module's candidates that
        # satisfy (10) against it.  Rows are built on first use and cached
        # per (constraint, side, assigned candidate).
        rows: dict[tuple[int, bool, int], np.ndarray] = {}
        # Hot loop: hits are counted locally and charged once after the
        # search.
        cache_hits = 0

        def row(gi: int, dst_assigned: bool, ci: int) -> np.ndarray:
            nonlocal cache_hits
            key = (gi, dst_assigned, ci)
            mask = rows.get(key)
            if mask is None:
                gc = self.constraints[gi]
                if dst_assigned:
                    b, o = divmod(ci, widths[self.position[gc.dst_module]])
                    fixed = dst_keys[gi][b] + dst_shift[gi][o]
                    index = (fixed - src_keys[gi][:, None, :]
                             - src_shift[gi][None, :, None])
                else:
                    b, o = divmod(ci, widths[self.position[gc.src_module]])
                    fixed = src_keys[gi][b] + src_shift[gi][o]
                    index = (dst_keys[gi][:, None, :]
                             + dst_shift[gi][None, :, None] - fixed)
                mask = rows[key] = \
                    (hops[index] <= self.gaps[gi]).all(axis=2).ravel()
            else:
                cache_hits += 1
            return mask

        # Per level: a static mask (constraints between a module and
        # itself, where an offset moves both endpoints alike) and the
        # (constraint, dst side assigned, assigned module position) rows
        # to AND in.
        level_masks: list[np.ndarray] = []
        level_rows: list[list[tuple[int, bool, int]]] = []
        check_at: dict[int, list[int]] = {}
        for gi in self.linked:
            gc = self.constraints[gi]
            at = max(self.position[gc.dst_module],
                     self.position[gc.src_module])
            check_at.setdefault(at, []).append(gi)
        for idx, p in enumerate(order):
            mask = np.ones(len(self.bases[idx]), dtype=bool)
            checks = []
            for gi in check_at.get(idx, []):
                gc = self.constraints[gi]
                if gc.dst_module == gc.src_module:
                    mask &= (hops[dst_keys[gi] - src_keys[gi]]
                             <= self.gaps[gi]).all(axis=1)
                elif gc.dst_module == p.name:
                    checks.append((gi, False,
                                   self.position[gc.src_module]))
                else:
                    checks.append((gi, True, self.position[gc.dst_module]))
            level_masks.append(np.repeat(mask, widths[idx]))
            level_rows.append(checks)

        def union_sizes(idx: int, union: np.ndarray,
                        cands: np.ndarray) -> np.ndarray:
            """Cell count of ``union`` joined with each candidate's cells."""
            b, o = np.divmod(cands, widths[idx])
            lens = self.counts[idx][b]
            if not len(union) or not len(cands):
                return lens
            ends = np.cumsum(lens)
            firsts = ends - lens
            # Concatenated cell keys of the candidates, one segment each.
            at = np.arange(int(ends[-1])) \
                - np.repeat(firsts - self.starts[idx][b], lens)
            cand_keys = keys[idx][at] + np.repeat(shifts[idx][o], lens)
            pos = np.minimum(np.searchsorted(union, cand_keys),
                             len(union) - 1)
            shared = np.concatenate(
                ([0], np.cumsum(union[pos] == cand_keys)))
            return len(union) + lens - (shared[ends] - shared[firsts])

        def tie_key(assigned: list[int]) -> tuple:
            """Entry codes of the assignment: per module, each matrix row
            followed by its offset."""
            flat: list[int] = []
            for m, ci in enumerate(assigned):
                b, o = divmod(ci, widths[m])
                flat += np.concatenate([codes[m][b], off_codes[m][o]],
                                       axis=1).ravel().tolist()
            return tuple(flat)

        limit = upper_bound - 1 if upper_bound is not None else math.inf
        best_count: int | None = None
        best_flat: tuple | None = None
        best_assignment: list[int] | None = None
        examined = 0
        assignment: list[int] = []          # candidate index per module
        depth = len(order)

        def recurse(idx: int, union: np.ndarray) -> None:
            nonlocal best_count, best_flat, best_assignment, examined, limit
            mask = level_masks[idx]
            for gi, dst_assigned, other in level_rows[idx]:
                mask = mask & row(gi, dst_assigned, assignment[other])
            cands = np.flatnonzero(mask)
            sizes = union_sizes(idx, union, cands)
            for ci, size in zip(cands.tolist(), sizes.tolist()):
                if idx + 1 < depth:
                    # Prune only strictly above the best: an equal union
                    # can still end in a tie the tie-break decides.
                    if size > limit:
                        continue
                    b, o = divmod(ci, widths[idx])
                    start, stop = self.starts[idx][b:b + 2]
                    assignment.append(ci)
                    recurse(idx + 1, np.union1d(
                        union, keys[idx][start:stop] + shifts[idx][o]))
                    assignment.pop()
                elif size <= limit:
                    # A complete assignment that ties or beats the best.
                    examined += 1
                    flat = tie_key(assignment + [ci])
                    if best_count is None \
                            or (size, flat) < (best_count, best_flat):
                        best_count, best_flat = size, flat
                        best_assignment = assignment + [ci]
                        limit = size

        with TRACER.span("space.search"):
            if depth:
                recurse(0, np.zeros(0, dtype=np.int64))
            else:
                best_count, best_assignment, examined = 0, [], 1
        if cache_hits:
            TRACER.count("space.adjacency_cache_hits", cache_hits)
        TRACER.count("space.assignments_examined", examined)
        if best_assignment is None:
            below = "" if upper_bound is None \
                else f" with fewer than {upper_bound} cells"
            raise NoSpaceMapExists(
                "no joint space mapping satisfies the global adjacency "
                f"constraints{below}")
        maps = {}
        for m, (p, ci) in enumerate(zip(order, best_assignment)):
            b, o = divmod(ci, widths[m])
            maps[p.name] = SpaceMap(p.dims, self.bases[m][b].tolist(),
                                    grids[m][o].tolist())
        return MultiSpaceSolution(maps, best_count, examined)


def _occupied_cells(bases: np.ndarray, points: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Distinct cells of ``points`` under each base matrix, in
    lexicographic order: ``(cells, starts)`` with base ``b``'s cells in
    rows ``starts[b]:starts[b + 1]``.

    Cells are ranked by mixed-radix keys over a box that bounds every
    cell of every base, so ``points @ (S^T radix)`` keys them without
    building the cells, and one sort per base orders them."""
    count, label_dim, _ = bases.shape
    if not len(points):
        return (np.zeros((0, label_dim), dtype=np.int64),
                np.zeros(count + 1, dtype=np.int64))
    at_lo = bases * points.min(axis=0)
    at_hi = bases * points.max(axis=0)
    lo = np.minimum(at_lo, at_hi).sum(axis=2).min(axis=0)
    shape = np.maximum(at_lo, at_hi).sum(axis=2).max(axis=0) - lo + 1
    radix = np.ones(label_dim, dtype=np.int64)
    radix[:-1] = np.cumprod(shape[:0:-1])[::-1]
    ranked = np.sort((bases.transpose(0, 2, 1) @ radix) @ points.T, axis=1)
    ranked -= lo @ radix
    first = np.ones(ranked.shape, dtype=bool)
    first[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    starts = np.concatenate(([0], np.cumsum(first.sum(axis=1))))
    distinct = np.stack(np.unravel_index(ranked[first], tuple(shape)),
                        axis=1)
    return distinct.astype(np.int64) + lo, starts


def _endpoint_cells(bases: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Cells of ``points`` under every base matrix: ``(bases, points,
    label_dim)``, in one broadcast matmul."""
    return np.asarray(points, dtype=np.int64) @ bases.transpose(0, 2, 1)


def solve_multimodule_space(problems: Sequence[ModuleSpaceProblem],
                            constraints: Sequence[GlobalConstraint],
                            decomposer: LinkDecomposer,
                            label_dim: int,
                            upper_bound: int | None = None
                            ) -> MultiSpaceSolution:
    """Find the joint allocation minimising total distinct cells, each
    module's offsets drawn from its problem's ``offsets``.

    Deterministic: candidates enumerate in a fixed order and ties break on
    the lexicographically smallest concatenated matrices.  With
    ``upper_bound``, only allocations of fewer cells count (see
    :meth:`JointSpaceSearch.solve`).
    """
    search = JointSpaceSearch(problems, constraints, decomposer, label_dim)
    return search.solve({p.name: p.offsets for p in problems}, upper_bound)
