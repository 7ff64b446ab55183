"""Greedy routing on the torus (Section 6 open-problem topology).

Row-first greedy with wraparound: along each dimension the packet takes the
shorter way around the ring (ties broken toward the positive direction, a
fixed deterministic rule so the scheme stays oblivious). The paper observes
that the torus contains directed rings, hence cannot be layered and the
Theorem 1 upper bound does not apply — but the lower-bound machinery
(Theorems 10/14) still does, and simulation works fine.

Each leg is an arithmetic run of the ring coordinate, so
:meth:`GreedyTorusRouter.path` (one pair, memoized by the path cache) and
:meth:`GreedyTorusRouter.route_batch` (whole batches; the traffic solver
uses it to calibrate torus load) build their paths in closed form from
the same leg table. There is no ``edge_levels``: the rings admit no level
order, so the vectorized kernels keep rejecting torus routes.
"""

from __future__ import annotations

import numpy as np

from repro.routing.base import BaseRouter
from repro.routing.greedy import _arithmetic_runs
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

    def path(self, src: int, dst: int) -> tuple[int, ...]:
        """Greedy wraparound path; empty when ``src == dst``.

        Each leg is the arithmetic run of the ring coordinate that
        :meth:`route_batch` emits, reduced mod the ring size, scaled by
        its stride and added to the base of its direction block.
        """
        if src == dst:
            return ()
        t = self.torus
        rows, cols, n = t.rows, t.cols, t.num_nodes
        i1, j1 = t.node_coords(src)
        i2, j2 = t.node_coords(dst)
        # The row leg runs on row ``r``, the column leg on column ``c``.
        r, c = (i2, j1) if self.column_first else (i1, j2)
        right, down = ring_step(j1, j2, cols), ring_step(i1, i2, rows)
        # Per leg: (start, step, count, ring size, stride, block base).
        legs = [
            (j1, right, (j2 - j1) * right % cols, cols, 1,
             (0 if right == 1 else n) + r * cols),
            (i1, down, (i2 - i1) * down % rows, rows, cols,
             (2 * n if down == 1 else 3 * n) + c),
        ]
        if self.column_first:
            legs.reverse()
        ids = self._edge_ids
        return tuple([
            ids[base + (start + k * step) % size * stride]
            for start, step, count, size, stride, base in legs
            for k in range(count)
        ])

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
