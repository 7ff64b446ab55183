"""Greedy (dimension-order) routing on array meshes.

The paper's scheme: "packets move to their destination greedily, first to
the correct column along only row edges and then to the correct row along
only column edges". :class:`GreedyArrayRouter` implements exactly that
order (row edges first); :class:`GreedyKDRouter` generalises to
k-dimensional arrays, correcting dimensions in a fixed canonical order,
which is the natural higher-dimensional analogue from Section 5.2.

Implementation note: a dimension-order path is a few straight legs, and
along a leg the edge ids form an arithmetic run (the id-block table in
:mod:`repro.topology.array_mesh`). Both routers build :meth:`path` from
those runs in closed form, with no per-hop lookup and no per-router
table; :meth:`path` is what the path cache memoizes for the event
engines. The vectorized kernels skip the cache:
:meth:`GreedyArrayRouter.route_batch` emits a whole batch of paths from
the same leg arithmetic, and :meth:`GreedyArrayRouter.edge_levels` gives
the static edge order their level sweep needs.
"""

from __future__ import annotations

import numpy as np

from repro.routing.base import BaseRouter
from repro.topology.array_mesh import ArrayMesh, KDArray


def _arithmetic_runs(
    starts: np.ndarray, steps: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Concatenated runs ``start, start + step, ...`` (``count`` terms each).

    The runs are taken in flattened (row-major) order of the three
    equal-shape arrays and returned as one ``int32`` array. This is the
    closed-form route kernel: a dimension-order path is a few straight
    legs, and along a leg the edge ids form an arithmetic run. Built as
    one cumulative sum of per-element increments (``step`` inside a run,
    a jump at each run's head), so the cost is a few passes over the
    output whatever the number of runs.
    """
    counts = np.ravel(counts)
    keep = counts > 0
    counts = counts[keep]
    if counts.size == 0:
        return np.empty(0, dtype=np.int32)
    starts = np.ravel(starts)[keep]
    steps = np.ravel(steps)[keep]
    inc = np.repeat(steps, counts)
    heads = np.cumsum(counts) - counts
    inc[0] = starts[0]
    # Jump from the previous run's last term to this run's start.
    inc[heads[1:]] = starts[1:] - (starts[:-1] + (counts[:-1] - 1) * steps[:-1])
    return np.cumsum(inc, dtype=np.int32)


class GreedyArrayRouter(BaseRouter):
    """Row-first greedy routing on an :class:`ArrayMesh`.

    A packet at ``(i, j)`` destined for ``(i', j')`` first walks along row
    ``i`` to column ``j'`` (right or left), then along column ``j'`` to row
    ``i'`` (down or up).

    Parameters
    ----------
    mesh:
        The array mesh to route on.
    column_first:
        If true, correct the row coordinate first (column edges before row
        edges). The paper's standard scheme is ``column_first=False``; the
        transposed variant is provided because the randomized scheme of
        Section 6 mixes the two.

    Examples
    --------
    >>> mesh = ArrayMesh(3)
    >>> router = GreedyArrayRouter(mesh)
    >>> src, dst = mesh.node_id(0, 0), mesh.node_id(2, 1)
    >>> [mesh.edge_endpoints(e) for e in router.path(src, dst)]
    [(0, 1), (1, 4), (4, 7)]
    """

    def __init__(self, mesh: ArrayMesh, *, column_first: bool = False) -> None:
        super().__init__(mesh)
        self.mesh = mesh
        self.column_first = column_first

    def path(self, src: int, dst: int) -> tuple[int, ...]:
        """Greedy path from ``src`` to ``dst``; empty when they coincide.

        The two legs are the arithmetic runs :meth:`route_batch` emits:
        a row leg stepping ``±1`` through the RIGHT or LEFT block and a
        column leg stepping ``±cols`` through the DOWN or UP block.
        """
        if src == dst:
            return ()
        mesh = self.mesh
        rows, cols = mesh.rows, mesh.cols
        i1, j1 = mesh.node_coords(src)
        i2, j2 = mesh.node_coords(dst)
        dj, di = j2 - j1, i2 - i1
        h, v = rows * (cols - 1), (rows - 1) * cols
        # The row leg runs on row ``r``, the column leg on column ``c``.
        r, c = (i2, j1) if self.column_first else (i1, j2)
        row_start = (0 if dj > 0 else h - 1) + r * (cols - 1) + j1
        col_start = (2 * h if di > 0 else 2 * h + v - cols) + i1 * cols + c
        # A backward leg stops above its block's base, so no slice stop
        # is ever negative.
        ids = self._edge_ids
        row = ids[row_start : row_start + dj : 1 if dj > 0 else -1]
        col = ids[col_start : col_start + di * cols : cols if di > 0 else -cols]
        if self.column_first:
            return (*col, *row)
        return (*row, *col)

    def route_batch(
        self, srcs: np.ndarray, dsts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`path` for parallel ``(src, dst)`` arrays, in closed form.

        Returns ``(lens, edges)``: the hop count of every pair and the
        ``int32`` edge ids of all paths concatenated in pair order, edge
        for edge what :meth:`path` returns. Along a row leg the edge ids
        step by ``±1`` and along a column leg by ``±cols`` (see the
        id-block table in :mod:`repro.topology.array_mesh`), so each path
        is two arithmetic runs and the batch needs no per-pair loop.
        """
        mesh = self.mesh
        cols = mesh.cols
        h, v = mesh.horizontal_edge_count(), mesh.vertical_edge_count()
        i1, j1 = np.divmod(np.asarray(srcs, dtype=np.int64), cols)
        i2, j2 = np.divmod(np.asarray(dsts, dtype=np.int64), cols)
        dj, di = j2 - j1, i2 - i1
        # The row leg runs on row ``r``, the column leg on column ``c``.
        r, c = (i2, j1) if self.column_first else (i1, j2)
        row_start = np.where(dj > 0, 0, h - 1) + r * (cols - 1) + j1
        col_start = np.where(di > 0, 2 * h, 2 * h + v - cols) + i1 * cols + c
        legs = [
            (row_start, np.sign(dj), np.abs(dj)),
            (col_start, np.sign(di) * cols, np.abs(di)),
        ]
        if self.column_first:
            legs.reverse()
        starts, steps, counts = (np.stack(x, axis=1) for x in zip(*legs))
        return counts.sum(axis=1), _arithmetic_runs(starts, steps, counts)

    def edge_levels(self) -> np.ndarray:
        """A static level per edge that strictly increases along every path.

        Row-first: RIGHT at column ``j`` is level ``j`` and LEFT into
        column ``j`` is ``cols - 2 - j``; the column edges follow at
        ``cols - 1 + i`` (DOWN from row ``i``) and ``cols - 1 + rows - 2
        - i`` (UP into row ``i``). Column-first swaps the two halves. The
        vectorized kernels sweep edges in this order, with no per-run
        precedence fixpoint.
        """
        rows, cols = self.mesh.rows, self.mesh.cols
        j = np.tile(np.arange(cols - 1), rows)  # RIGHT/LEFT blocks
        i = np.repeat(np.arange(rows - 1), cols)  # DOWN/UP blocks
        row_leg = np.concatenate((j, cols - 2 - j))
        col_leg = np.concatenate((i, rows - 2 - i))
        if self.column_first:
            return np.concatenate((row_leg + rows - 1, col_leg))
        return np.concatenate((row_leg, col_leg + cols - 1))


class GreedyKDRouter(BaseRouter):
    """Dimension-order greedy routing on a :class:`KDArray`.

    Dimensions are corrected in the order given by ``dimension_order``
    (default ``0, 1, ..., k-1``). On a 2-D array with order ``(1, 0)`` this
    coincides with the paper's row-first scheme (dimension 1 is the column
    coordinate, adjusted while moving along the row).
    """

    def __init__(self, array: KDArray, dimension_order: tuple[int, ...] | None = None) -> None:
        super().__init__(array)
        self.array = array
        k = len(array.dims)
        order = tuple(range(k)) if dimension_order is None else tuple(dimension_order)
        if sorted(order) != list(range(k)):
            raise ValueError(f"dimension_order must permute 0..{k - 1}, got {order}")
        self.dimension_order = order
        # Per corrected axis: stride, stride times side, and the bases of
        # the (axis, +) and (axis, -) edge-id blocks.
        self._legs = tuple(
            (axis, array.strides[axis], array.strides[axis] * array.dims[axis],
             array.block(axis, +1)[0], array.block(axis, -1)[0])
            for axis in order
        )

    def path(self, src: int, dst: int) -> tuple[int, ...]:
        """Correct each dimension fully, in ``dimension_order``.

        Each axis correction is one arithmetic run stepping by ``±s``
        (the axis stride). With side ``d``, the edge out of node ``v`` is
        number ``v - (v // (d * s)) * s`` in the ``(axis, +)`` block of
        :class:`~repro.topology.array_mesh.KDArray` (each earlier span of
        ``d * s`` nodes has ``s`` on its far face, which own no such
        edge), and ``s`` lower in the ``(axis, -)`` block (the near face
        owns none).
        """
        if src == dst:
            return ()
        coord = self.array.node_coords(src)
        target = self.array.node_coords(dst)
        ids = self._edge_ids
        at = src
        out: list[int] = []
        for axis, s, span, plus, minus in self._legs:
            delta = target[axis] - coord[axis]
            if delta > 0:
                start = plus + at - at // span * s
                out += ids[start : start + delta * s : s]
            elif delta < 0:
                # The (axis, -) block starts at or past ``s``, so the
                # slice stop is never negative.
                start = minus + at - (at // span + 1) * s
                out += ids[start : start + delta * s : -s]
            at += delta * s
        return tuple(out)
