"""Space maps (processor allocation functions) and their enumeration.

A :class:`SpaceMap` is the paper's ``S : I^n -> L^{n-1}``, affine with integer
coefficients (a translation offset is allowed — the new design of Section VI
maps the combine statement to cell ``(i+1, i)``).

Feasibility of a candidate ``S`` w.r.t. a schedule ``T`` and interconnection
``Δ`` (conditions (2) and (3)):

* **flow realisability** — for every dependence ``d``, the displacement
  ``S d`` must be coverable by at most ``T(d)`` links of ``Δ`` (``K`` column
  with non-negative entries; idle cycles absorb the slack);
* **conflict-freedom** — no two computations of the module may collide in
  (time, cell); with ``[T; S]`` of full column rank (non-singular when
  square) this holds for every pair of distinct points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.deps.vectors import DependenceMatrix
from repro.schedule.linear import LinearSchedule
from repro.space.diophantine import LinkDecomposer
from repro.space.smith import det, int_rank


@dataclass(frozen=True)
class SpaceMap:
    """``S(x) = matrix @ x + offset`` mapping index points to cell labels."""

    dims: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]
    offset: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        matrix = tuple(tuple(int(v) for v in row) for row in self.matrix)
        object.__setattr__(self, "matrix", matrix)
        if not matrix:
            raise ValueError("space map needs at least one output coordinate")
        widths = {len(row) for row in matrix}
        if widths != {len(self.dims)}:
            raise ValueError("matrix row width must equal #dims")
        offset = tuple(int(v) for v in self.offset) if self.offset \
            else tuple([0] * len(matrix))
        if len(offset) != len(matrix):
            raise ValueError("offset length must equal #rows")
        object.__setattr__(self, "offset", offset)

    @property
    def label_dim(self) -> int:
        return len(self.matrix)

    def cell(self, point: Sequence[int] | Mapping[str, int]) -> tuple[int, ...]:
        if isinstance(point, Mapping):
            values = [int(point[d]) for d in self.dims]
        else:
            values = [int(v) for v in point]
        return tuple(
            sum(c * v for c, v in zip(row, values)) + off
            for row, off in zip(self.matrix, self.offset))

    def cells(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.int64)
        M = np.array(self.matrix, dtype=np.int64)
        return pts @ M.T + np.array(self.offset, dtype=np.int64)

    def of_vector(self, d: Sequence[int]) -> tuple[int, ...]:
        """Spatial displacement ``S d`` of a dependence vector (offset-free)."""
        return tuple(sum(c * int(v) for c, v in zip(row, d))
                     for row in self.matrix)

    def __repr__(self) -> str:
        rows = "; ".join(
            " ".join(str(v) for v in row) + (f" +{off}" if off else "")
            for row, off in zip(self.matrix, self.offset))
        return f"S{self.dims}=[{rows}]"


def transformation_nonsingular(schedule: LinearSchedule,
                               space: SpaceMap) -> bool:
    """Whether ``Π = [T; S]`` is square and non-singular — the paper's
    sufficient condition for conflict-freedom (2)."""
    n = len(schedule.dims)
    if space.label_dim + 1 != n:
        return False
    Pi = [list(schedule.coeffs)] + [list(row) for row in space.matrix]
    return det(Pi) != 0


def transformation_full_rank(schedule: LinearSchedule,
                             space: SpaceMap) -> bool:
    """Whether ``Π = [T; S]`` has full *column* rank — the generalisation of
    the paper's non-singularity requirement to non-square transformations
    (it makes ``Π`` injective on all of ``Z^n``, i.e. conflict-free for every
    problem size, not just the enumerated one)."""
    Pi = [list(schedule.coeffs)] + [list(row) for row in space.matrix]
    return int_rank(Pi) == len(schedule.dims)


def entry_preference(value: int) -> tuple[int, int]:
    """Deterministic ordering of matrix entries: 0 < 1 < -1 < 2 < -2 < ...
    (prefer small magnitudes, and non-negative within a magnitude) — this is
    the "least integer values" convention the paper uses when several optima
    exist."""
    return (abs(value), 0 if value >= 0 else 1)


def conflict_free(schedule: LinearSchedule, space: SpaceMap,
                  points: np.ndarray) -> bool:
    """Exact pointwise check of condition (2) over the enumerated domain:
    no two points share both time and cell."""
    pts = np.asarray(points, dtype=np.int64)
    if pts.shape[0] <= 1:
        return True
    times = schedule.times(pts)
    cells = space.cells(pts)
    stamped = np.column_stack([times, cells])
    # One lexsort + adjacent-row comparison: a collision is two equal
    # consecutive rows in sorted order (cheaper than np.unique, which also
    # materialises the deduplicated array).
    order = np.lexsort(stamped.T[::-1])
    ranked = stamped[order]
    return not (ranked[1:] == ranked[:-1]).all(axis=1).any()


def flows_realisable(deps: DependenceMatrix, schedule: LinearSchedule,
                     space: SpaceMap, decomposer: LinkDecomposer) -> bool:
    """Condition (3) with the paper's locality reading: every dependence's
    displacement must be coverable within its time slack.

    Slacks ``T d`` and displacements ``S D`` are computed for all dependence
    columns in two matmuls; only the (cached) per-pair reachability query
    remains scalar."""
    D = deps.matrix()                                    # dim x k
    slacks = np.array(schedule.coeffs, dtype=np.int64) @ D
    disps = np.array(space.matrix, dtype=np.int64) @ D   # label_dim x k
    return all(
        decomposer.reachable_within(tuple(int(c) for c in disps[:, j]),
                                    int(slacks[j]))
        for j in range(D.shape[1]))


def _full_column_rank(pis: np.ndarray) -> np.ndarray:
    """Which of the stacked integer matrices ``pis`` ``(C, rows, n)`` have
    full column rank ``n``: some ``n x n`` minor is non-zero.

    Each minor is an exact int64 Leibniz sum over the column permutations
    (``n!`` products of ``n`` small entries), evaluated for all matrices at
    once."""
    count, rows, n = pis.shape
    full = np.zeros(count, dtype=bool)
    if rows < n:
        return full
    perms = list(itertools.permutations(range(n)))
    signs = [1 - 2 * (sum(a > b for a, b in itertools.combinations(perm, 2))
                      % 2) for perm in perms]
    for chosen in itertools.combinations(range(rows), n):
        minor = np.zeros(count, dtype=np.int64)
        for sign, perm in zip(signs, perms):
            term = np.full(count, sign, dtype=np.int64)
            for r, c in zip(chosen, perm):
                term *= pis[:, r, c]
            minor += term
        full |= minor != 0
    return full


def entry_codes(values) -> np.ndarray:
    """Integer codes ``2|v| + (v < 0)`` of matrix entries: ascending codes
    are the :func:`entry_preference` order, so comparing code sequences
    lexicographically compares the preference pairs."""
    values = np.asarray(values, dtype=np.int64)
    return 2 * np.abs(values) + (values < 0)


def offset_grid(offsets: Sequence[int], label_dim: int) -> np.ndarray:
    """Every offset vector with coordinates drawn from ``offsets``, as an
    ``(O, label_dim)`` int64 array in preference order, the last
    coordinate varying fastest."""
    ranked = sorted(offsets, key=entry_preference)
    return np.array(list(itertools.product(ranked, repeat=label_dim)),
                    dtype=np.int64).reshape(-1, label_dim)


def feasible_bases(dims: Sequence[str], label_dim: int,
                   deps: DependenceMatrix | None,
                   schedule: LinearSchedule,
                   decomposer: LinkDecomposer,
                   points: np.ndarray,
                   bound: int = 1) -> np.ndarray:
    """The offset-free matrices of every feasible space map with entries in
    ``[-bound, bound]``: a ``(B, label_dim, n)`` int64 array in the
    paper's "least integer values" order (:func:`entry_preference`,
    row-major).

    Every matrix of the box is one row of a ``(C, label_dim, n)`` array,
    and the conditions filter all of them at once:

    * full column rank of ``[T; S]`` from exact int64 minors.  ``[T; S]``
      is then injective on ``Z^n``, so two computations share (time, cell)
      only if they are the same point: one distinct-points check on
      ``points`` is conflict-freedom (2) for every matrix and offset;
    * flow realisability (when local deps exist): ``S D`` for every
      candidate in one matmul, each displacement's link-hop count read
      from one BFS table (:meth:`LinkDecomposer.hop_table`) and compared
      with its slack ``T d``.

    An offset moves every cell alike, so it changes none of these
    verdicts.
    """
    n = len(dims)
    pts = np.asarray(points, dtype=np.int64)
    if len(pts) > 1:
        ranked = pts[np.lexsort(pts.T)]
        if (ranked[1:] == ranked[:-1]).all(axis=1).any():
            return np.zeros((0, label_dim, n), dtype=np.int64)
    entries = np.array(sorted(range(-bound, bound + 1), key=entry_preference),
                       dtype=np.int64)
    width = label_dim * n
    # Row r of ``digits`` is the r-th tuple of itertools.product over the
    # entries, so the candidates keep the preference order.
    digits = np.indices((len(entries),) * width).reshape(
        width, len(entries) ** width).T
    mats = entries[digits].reshape(len(digits), label_dim, n)

    coeffs = np.array(schedule.coeffs, dtype=np.int64)
    pis = np.concatenate(
        [np.broadcast_to(coeffs, (len(mats), 1, n)), mats], axis=1)
    mats = mats[_full_column_rank(pis)]

    if deps is not None and len(deps) > 0 and len(mats):
        D = deps.matrix()                                 # n x k
        slacks = coeffs @ D
        disps = mats @ D                                  # C x label_dim x k
        lo = disps.min(axis=(0, 2))
        hi = disps.max(axis=(0, 2))
        hops = decomposer.hop_table(lo, hi, int(slacks.max()))
        index = np.ravel_multi_index(
            tuple(np.moveaxis(disps, 1, 0) - lo[:, None, None]),
            tuple(hi - lo + 1))
        mats = mats[(hops[index] <= slacks).all(axis=1)]
    return mats


def enumerate_space_maps(dims: Sequence[str], label_dim: int,
                         deps: DependenceMatrix | None,
                         schedule: LinearSchedule,
                         decomposer: LinkDecomposer,
                         points: np.ndarray,
                         bound: int = 1,
                         offsets: Sequence[int] = (0,)) -> list[SpaceMap]:
    """All feasible space maps with entries in ``[-bound, bound]`` (and
    offsets drawn from ``offsets``), ordered by the paper's "least integer
    values" preference (:func:`entry_preference`, row-major), offsets
    varying fastest.

    The :class:`SpaceMap` view of :func:`feasible_bases` crossed with
    :func:`offset_grid`: candidate ``c`` is base ``c // O`` with offset
    ``c % O``.  The joint search works on those arrays directly.
    """
    dims = tuple(dims)
    bases = feasible_bases(dims, label_dim, deps, schedule, decomposer,
                           points, bound=bound)
    offs = offset_grid(offsets, label_dim).tolist()
    return [SpaceMap(dims, matrix, off)
            for matrix in bases.tolist() for off in offs]


def cells_used(space: SpaceMap, points: np.ndarray) -> set[tuple[int, ...]]:
    """The set of distinct cells the mapped computations occupy."""
    pts = np.asarray(points, dtype=np.int64)
    if pts.shape[0] == 0:
        return set()
    cells = space.cells(pts)
    return {tuple(int(v) for v in row) for row in cells}
