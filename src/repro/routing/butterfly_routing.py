"""Unique-path routing on the butterfly.

In a d-level butterfly a packet entering at ``(0, r)`` destined for
``(d, r')`` has exactly one path: at level ``l`` it takes the cross edge
iff bit ``l`` of ``r XOR r'`` is set. Every packet crosses exactly ``d``
edges, which is why the copy bound (Theorem 10) gives a ``2d`` gap here —
the paper notes this matches Stamoulis and Tsitsiklis.

Sources must be level-0 nodes and destinations level-d nodes; routing any
other pair is a usage error and raises ``ValueError``.
"""

from __future__ import annotations

from repro.routing.base import BaseRouter
from repro.topology.butterfly import Butterfly


class ButterflyRouter(BaseRouter):
    """The unique level-by-level butterfly path.

    Examples
    --------
    >>> b = Butterfly(2)
    >>> r = ButterflyRouter(b)
    >>> len(r.path(b.node_id(0, 0), b.node_id(2, 3)))
    2
    """

    def __init__(self, butterfly: Butterfly) -> None:
        super().__init__(butterfly)
        self.butterfly = butterfly

    def path(self, src: int, dst: int) -> tuple[int, ...]:
        """The unique path from an input (level 0) to an output (level d)."""
        b = self.butterfly
        level_s, row_s = b.node_coords(src)
        level_d, row_d = b.node_coords(dst)
        if level_s != 0:
            raise ValueError(f"butterfly sources must be level-0 nodes, got level {level_s}")
        if level_d != b.d:
            raise ValueError(f"butterfly destinations must be level-{b.d} nodes, got level {level_d}")
        # Level ``l``'s block holds the straight edges at ``2 * rows * l +
        # row`` and the cross edges ``rows`` past them.
        rows = b.rows
        ids = self._edge_ids
        out: list[int] = []
        row = row_s
        need = row_s ^ row_d
        for level in range(b.d):
            cross = need & (1 << level)
            out.append(ids[2 * rows * level + (rows if cross else 0) + row])
            row ^= cross
        return tuple(out)
