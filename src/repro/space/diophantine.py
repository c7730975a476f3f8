"""Integer linear systems and link-decomposition of displacements.

Two solvers live here:

* :func:`solve_integer_system` — general ``A x = b`` over the integers via
  the Smith normal form (existence + one particular solution + the lattice of
  homogeneous solutions).  This is the textbook machinery behind the paper's
  diophantine equations (3).
* :func:`decompose_displacement` — the systolic-specific question: can a
  spatial displacement be realised as a non-negative combination of at most
  ``budget`` interconnection links (columns of Δ)?  The budget is the time
  slack ``T(d)``: a datum has ``T(d)`` cycles to cover ``S d``, moving at
  most one link per cycle (idling is free — the zero column of Δ, when
  present, is a register).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.space.smith import smith_normal_form


def solve_integer_system(A, b) -> tuple[np.ndarray, np.ndarray] | None:
    """Solve ``A x = b`` over the integers.

    Returns ``(x0, N)`` where ``x0`` is a particular integer solution and the
    columns of ``N`` span the integer null space (so every solution is
    ``x0 + N z``), or ``None`` when no integer solution exists.
    """
    A = np.array(A, dtype=object)
    b = np.array(b, dtype=object).reshape(-1)
    m, n = A.shape
    U, D, V = smith_normal_form(A)
    c = U @ b
    y = np.zeros(n, dtype=object)
    rank = 0
    for k in range(min(m, n)):
        d = int(D[k, k])
        if d != 0:
            rank = k + 1
    for k in range(min(m, n)):
        d = int(D[k, k])
        if d == 0:
            if int(c[k]) != 0:
                return None
            continue
        if int(c[k]) % d != 0:
            return None
        y[k] = int(c[k]) // d
    for k in range(min(m, n), m):
        if int(c[k]) != 0:
            return None
    x0 = V @ y
    null_cols = [V[:, k] for k in range(n)
                 if k >= min(m, n) or int(D[k, k]) == 0]
    if null_cols:
        N = np.stack(null_cols, axis=1)
    else:
        N = np.zeros((n, 0), dtype=object)
    return x0, N


class LinkDecomposer:
    """Decides link-distance questions for a fixed interconnection matrix.

    ``delta`` is the (space_dim x L) matrix of link vectors; a zero column —
    if present — is the "stay" register and costs a cycle but no movement
    (equivalently: idling is always allowed, so only non-zero hops count
    against the budget).
    """

    def __init__(self, delta) -> None:
        self.delta = np.asarray(delta, dtype=np.int64)
        if self.delta.ndim != 2:
            raise ValueError("delta must be a matrix")
        self.space_dim = self.delta.shape[0]
        self.links = [tuple(int(v) for v in self.delta[:, j])
                      for j in range(self.delta.shape[1])]
        self.moves = sorted({l for l in self.links if any(c != 0 for c in l)})

    @lru_cache(maxsize=None)
    def distance(self, displacement: tuple[int, ...],
                 limit: int = 64) -> int | None:
        """Minimum number of link hops realising ``displacement`` (BFS over
        the lattice), or ``None`` if unreachable within ``limit`` hops."""
        target = tuple(int(v) for v in displacement)
        if len(target) != self.space_dim:
            raise ValueError("displacement dimension mismatch")
        if all(v == 0 for v in target):
            return 0
        frontier = {tuple([0] * self.space_dim)}
        seen = set(frontier)
        for hops in range(1, limit + 1):
            nxt = set()
            for p in frontier:
                for mv in self.moves:
                    q = tuple(a + b for a, b in zip(p, mv))
                    if q == target:
                        return hops
                    if q not in seen:
                        seen.add(q)
                        nxt.add(q)
            if not nxt:
                return None
            frontier = nxt
        return None

    def reachable_within(self, displacement: tuple[int, ...],
                         budget: int) -> bool:
        """Constraint (10): the displacement must be coverable in at most
        ``budget`` hops (waiting fills the remaining cycles)."""
        if budget < 0:
            return False
        d = self.distance(tuple(int(v) for v in displacement),
                          limit=max(budget, 1))
        return d is not None and d <= budget

    def hop_table(self, lo: np.ndarray, hi: np.ndarray,
                  max_gap: int) -> np.ndarray:
        """Link-hop count of every displacement in the box ``[lo, hi]``,
        flat in C order; a displacement more than ``max_gap`` hops away
        reads ``max_gap + 1``.  Comparing an entry with a budget answers
        :meth:`reachable_within` for the whole box at once.

        One BFS from the origin over :attr:`moves`.  A path of at most
        ``max_gap`` hops never leaves ``max_gap`` times the moves' extreme
        coordinates, so searching that box (widened to cover ``[lo, hi]``)
        finds every hop count up to ``max_gap`` exactly."""
        reach = max(max_gap, 0)
        unreachable = reach + 1
        dim = len(lo)
        moves = np.array(self.moves, dtype=np.int64).reshape(-1, dim)
        grid_lo = np.minimum(lo, reach * moves.min(axis=0, initial=0))
        grid_hi = np.maximum(hi, reach * moves.max(axis=0, initial=0))
        shape = grid_hi - grid_lo + 1
        hops = np.full(tuple(shape), unreachable, dtype=np.int64)
        frontier = -grid_lo[None, :]
        hops[tuple(frontier.T)] = 0
        for hop in range(1, reach + 1):
            nxt = (frontier[:, None, :] + moves[None, :, :]).reshape(-1, dim)
            nxt = nxt[((nxt >= 0) & (nxt < shape)).all(axis=1)]
            nxt = nxt[hops[tuple(nxt.T)] == unreachable]
            if not len(nxt):
                break
            frontier = np.unique(nxt, axis=0)
            hops[tuple(frontier.T)] = hop
        box = tuple(slice(int(a), int(b) + 1)
                    for a, b in zip(lo - grid_lo, hi - grid_lo))
        return np.ascontiguousarray(hops[box]).ravel()

    def decompose(self, displacement: tuple[int, ...],
                  budget: int) -> list[tuple[int, ...]] | None:
        """An explicit hop sequence (list of link vectors, length <= budget)
        realising the displacement, or ``None``.  Used by the machine's
        router to materialise data movement.

        Cached per (displacement, budget): the router asks the same question
        for every consumer along a wavefront.  Returns a fresh list each
        call, so callers may mutate their copy."""
        hops = self._decompose_cached(tuple(int(v) for v in displacement),
                                      int(budget))
        return None if hops is None else list(hops)

    @lru_cache(maxsize=None)
    def _decompose_cached(self, target: tuple[int, ...],
                          budget: int) -> tuple[tuple[int, ...], ...] | None:
        if all(v == 0 for v in target):
            return ()
        if budget <= 0:
            return None
        # BFS with parent pointers.
        start = tuple([0] * self.space_dim)
        parent: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}
        frontier = [start]
        seen = {start}
        for _ in range(budget):
            nxt = []
            for p in frontier:
                for mv in self.moves:
                    q = tuple(a + b for a, b in zip(p, mv))
                    if q in seen:
                        continue
                    seen.add(q)
                    parent[q] = (p, mv)
                    if q == target:
                        hops: list[tuple[int, ...]] = []
                        node = q
                        while node != start:
                            prev, step = parent[node]
                            hops.append(step)
                            node = prev
                        hops.reverse()
                        return tuple(hops)
                    nxt.append(q)
            frontier = nxt
            if not frontier:
                return None
        return None
