"""Greedy routing on the torus (Section 6 open-problem topology).

Row-first greedy with wraparound: along each dimension the packet takes the
shorter way around the ring (ties broken toward the positive direction, a
fixed deterministic rule so the scheme stays oblivious). The paper observes
that the torus contains directed rings, hence cannot be layered and the
Theorem 1 upper bound does not apply — but the lower-bound machinery
(Theorems 10/14) still does, and simulation works fine.

:meth:`GreedyTorusRouter.route_batch` gives the same paths in closed form
for whole batches of pairs (each leg is an arithmetic run of the ring
coordinate); the traffic solver uses it to calibrate torus load. There is
no ``edge_levels``: the rings admit no level order, so the vectorized
kernels keep rejecting torus routes.
"""

from __future__ import annotations

import numpy as np

from repro.routing.base import BaseRouter
from repro.routing.greedy import _arithmetic_runs
from repro.topology.array_mesh import DOWN, LEFT, RIGHT, UP
from repro.topology.torus import Torus


def ring_step(frm: int, to: int, size: int) -> int:
    """Signed step (+1 forward / -1 backward / 0) for the shorter ring way.

    Forward means increasing coordinate mod ``size``; ties (exactly half
    way around an even ring) resolve to forward.
    """
    if frm == to:
        return 0
    forward = (to - frm) % size
    backward = (frm - to) % size
    return 1 if forward <= backward else -1


class GreedyTorusRouter(BaseRouter):
    """Shortest-way dimension-order greedy routing on a :class:`Torus`."""

    def __init__(self, torus: Torus, *, column_first: bool = False) -> None:
        super().__init__(torus)
        self.torus = torus
        self.column_first = column_first

    def _leg(self, i: int, j: int, target: int, *, horizontal: bool) -> tuple[list[int], int, int]:
        """Walk one dimension to ``target``; returns (edges, new_i, new_j)."""
        t = self.torus
        size = t.cols if horizontal else t.rows
        cur = j if horizontal else i
        step = ring_step(cur, target, size)
        edges: list[int] = []
        while cur != target:
            if horizontal:
                direction = RIGHT if step == 1 else LEFT
                edges.append(t.directed_edge_id(i, cur, direction))
            else:
                direction = DOWN if step == 1 else UP
                edges.append(t.directed_edge_id(cur, j, direction))
            cur = (cur + step) % size
        if horizontal:
            return edges, i, cur
        return edges, cur, j

    def path(self, src: int, dst: int) -> tuple[int, ...]:
        """Greedy wraparound path; empty when ``src == dst``."""
        if src == dst:
            return ()
        i1, j1 = self.torus.node_coords(src)
        i2, j2 = self.torus.node_coords(dst)
        if self.column_first:
            first, i1, j1 = self._leg(i1, j1, i2, horizontal=False)
            second, _, _ = self._leg(i1, j1, j2, horizontal=True)
        else:
            first, i1, j1 = self._leg(i1, j1, j2, horizontal=True)
            second, _, _ = self._leg(i1, j1, i2, horizontal=False)
        return tuple(first + second)

    def route_batch(
        self, srcs: np.ndarray, dsts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`path` for parallel ``(src, dst)`` arrays, in closed form.

        Returns ``(lens, edges)`` like
        :meth:`~repro.routing.greedy.GreedyArrayRouter.route_batch`. Each
        leg takes the shorter way around its ring (ties forward, as
        :func:`ring_step`), so its hops visit an arithmetic run of the
        ring coordinate; the edge id is that coordinate reduced mod the
        ring size, scaled by its stride and added to the base of the
        direction block (RIGHT, LEFT, DOWN, UP, ``rows * cols`` each).
        """
        t = self.torus
        rows, cols, n = t.rows, t.cols, t.num_nodes
        i1, j1 = np.divmod(np.asarray(srcs, dtype=np.int64), cols)
        i2, j2 = np.divmod(np.asarray(dsts, dtype=np.int64), cols)
        fj, fi = (j2 - j1) % cols, (i2 - i1) % rows  # forward distances
        bj, bi = (j1 - j2) % cols, (i1 - i2) % rows  # backward distances
        right, down = fj <= bj, fi <= bi
        # The row leg runs on row ``r``, the column leg on column ``c``.
        r, c = (i2, j1) if self.column_first else (i1, j2)
        ones = np.ones_like(i1)
        # Per leg: (start, step, count, ring size, stride, block base).
        legs = [
            (j1, np.where(right, 1, -1), np.minimum(fj, bj), cols * ones,
             ones, np.where(right, 0, n) + r * cols),
            (i1, np.where(down, 1, -1), np.minimum(fi, bi), rows * ones,
             cols * ones, np.where(down, 2 * n, 3 * n) + c),
        ]
        if self.column_first:
            legs.reverse()
        starts, steps, counts, sizes, strides, bases = (
            np.stack(x, axis=1).ravel() for x in zip(*legs)
        )
        coord = _arithmetic_runs(starts, steps, counts)
        hop = lambda a: np.repeat(a, counts)  # noqa: E731
        edges = coord % hop(sizes) * hop(strides) + hop(bases)
        return counts.reshape(-1, 2).sum(axis=1), edges.astype(np.int32)
