"""Canonical-order greedy routing on the hypercube (Section 4.5).

"Under greedy routing, the system can be thought of as a Markovian network
where each packet considers each dimension in some canonical order and
crosses an edge dimension with probability p." We fix the canonical order
to dimensions ``0, 1, ..., d-1``: the packet corrects every differing bit
in increasing bit order. This layers the hypercube (label an edge by its
dimension) and makes the routing Markovian, exactly the setting of
Stamoulis-Tsitsiklis that the paper's Section 4.5 improves upon.
"""

from __future__ import annotations

import numpy as np

from repro.routing.base import BaseRouter
from repro.topology.hypercube import Hypercube


class GreedyHypercubeRouter(BaseRouter):
    """Fix differing bits in increasing dimension order.

    Examples
    --------
    >>> cube = Hypercube(3)
    >>> router = GreedyHypercubeRouter(cube)
    >>> [cube.edge_endpoints(e) for e in router.path(0b000, 0b101)]
    [(0, 1), (1, 5)]
    """

    def __init__(self, cube: Hypercube) -> None:
        super().__init__(cube)
        self.cube = cube

    def path(self, src: int, dst: int) -> tuple[int, ...]:
        """Cross each differing dimension once, lowest dimension first.

        Dimension ``k``'s edge block starts at ``k * 2^d`` and the edge
        out of node ``v`` sits at offset ``v`` in it, so each hop is one
        addition.
        """
        if src == dst:
            return ()
        n = self.cube.num_nodes
        for v in (src, dst):
            if not 0 <= v < n:
                raise ValueError(f"node {v} outside 0..{n - 1}")
        ids = self._edge_ids
        at = int(src)
        diff = at ^ int(dst)
        out: list[int] = []
        base = 0
        bit = 1
        while diff:
            if diff & bit:
                out.append(ids[base + at])
                at ^= bit
                diff ^= bit
            base += n
            bit <<= 1
        return tuple(out)

    def route_batch(
        self, srcs: np.ndarray, dsts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`path` for parallel ``(src, dst)`` arrays, in closed form.

        Returns ``(lens, edges)`` like
        :meth:`~repro.routing.greedy.GreedyArrayRouter.route_batch`.
        Before crossing dimension ``k`` a packet sits at ``src`` with the
        differing bits below ``k`` already fixed, and the crossing edge is
        ``k * 2^d`` plus that node — one ``(pairs x d)`` table, masked to
        the differing bits.
        """
        n = self.cube.num_nodes
        k = np.arange(self.cube.d, dtype=np.int64)
        srcs = np.asarray(srcs, dtype=np.int64)[:, None]
        diff = srcs ^ np.asarray(dsts, dtype=np.int64)[:, None]
        crosses = ((diff >> k) & 1).astype(bool)
        at = srcs ^ (diff & ((1 << k) - 1))
        edges = (k * n + at)[crosses].astype(np.int32)
        return crosses.sum(axis=1), edges

    def edge_levels(self) -> np.ndarray:
        """Static per-edge levels: an edge's dimension. Paths cross
        dimensions in increasing order, so levels strictly increase
        along every path."""
        return np.repeat(np.arange(self.cube.d), self.cube.num_nodes)
