"""Shared helpers for the engine regression tests."""

from __future__ import annotations

import numpy as np


class AlwaysNodeZero:
    """Destination law sending every packet to node 0 (src 0 is zero-hop)."""

    num_nodes = 2

    def sample(self, src, rng):
        return 0

    def pmf(self, src):
        v = np.zeros(2)
        v[0] = 1.0
        return v


class BoundaryRNG:
    """Wrap a Generator so the first bare ``random()`` call returns 0.0.

    A draw landing exactly on a CDF boundary is measure-zero, so the
    regressions for the ``side='left'`` source-selection bug force it.
    """

    def __init__(self, inner):
        self._inner = inner
        self._first = True

    def random(self, *args, **kwargs):
        if self._first and not args and not kwargs:
            self._first = False
            return 0.0
        return self._inner.random(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class BatchBoundaryRNG:
    """Wrap a Generator so the first *batched* ``random(m)`` call returns
    0.0 in its first element — the measure-zero CDF-boundary draw that
    the reference loops guard with ``side='right'``."""

    def __init__(self, inner):
        self._inner = inner
        self._first = True

    def random(self, *args, **kwargs):
        out = self._inner.random(*args, **kwargs)
        if self._first and args and np.ndim(out) == 1 and len(out):
            self._first = False
            out[0] = 0.0
        return out

    def __getattr__(self, name):
        return getattr(self._inner, name)


def patch_heap_event_queue(monkeypatch, module):
    """Mirror every event ``module``'s loops push onto their ``heapq``
    list into a ``CalendarQueue``, and assert that each heap pop is the
    very object the calendar pops next — so one engine run checks the
    two queues' pop orders on a real event stream.

    Returns the list of ``(heap, calendar)`` pairs built under the patch;
    a non-empty list proves the run went through an event-queue loop.
    """
    import heapq

    from repro.sim.eventqueue import CalendarQueue

    built = []
    mirrors = {}  # id(heap) -> calendar; built keeps each heap alive

    def push(heap, item):
        calendar = mirrors.get(id(heap))
        if calendar is None:
            # Any width pops the same order; Brown's rule re-estimates it.
            calendar = mirrors[id(heap)] = CalendarQueue(1.0)
            built.append((heap, calendar))
        calendar.push(item)
        heapq.heappush(heap, item)

    def pop(heap):
        item = heapq.heappop(heap)
        calendar = mirrors[id(heap)]
        assert calendar.pop() is item, "calendar and heap pop orders differ"
        assert len(calendar) == len(heap)
        return item

    monkeypatch.setattr(module, "heappush", push)
    monkeypatch.setattr(module, "heappop", pop)
    return built


# ----------------------------------------------------------------------
# Hop-by-hop reference walkers. The routers' scalar ``path`` is closed-form
# leg arithmetic over the edge-id blocks; these walk one hop at a time
# through each topology's own per-edge lookups, so the routing tests can
# pin ``path`` edge for edge against an independent construction.


def mesh_walk(mesh, src, dst, *, column_first=False):
    """Greedy mesh path: the row leg, then the column leg (swapped when
    ``column_first``), one ``directed_edge_id`` per hop."""
    from repro.topology.array_mesh import DOWN, LEFT, RIGHT, UP

    if src == dst:
        return ()
    i1, j1 = mesh.node_coords(src)
    i2, j2 = mesh.node_coords(dst)

    def row_leg(i, j, target):
        out = []
        while j != target:
            if target > j:
                out.append(mesh.directed_edge_id(i, j, RIGHT))
                j += 1
            else:
                out.append(mesh.directed_edge_id(i, j, LEFT))
                j -= 1
        return out

    def col_leg(i, target, j):
        out = []
        while i != target:
            if target > i:
                out.append(mesh.directed_edge_id(i, j, DOWN))
                i += 1
            else:
                out.append(mesh.directed_edge_id(i, j, UP))
                i -= 1
        return out

    if column_first:
        return tuple(col_leg(i1, i2, j1) + row_leg(i2, j1, j2))
    return tuple(row_leg(i1, j1, j2) + col_leg(i1, i2, j2))


def torus_walk(torus, src, dst, *, column_first=False):
    """Greedy torus path: per dimension the shorter way around the ring,
    ties (exactly half way on an even ring) resolved forward."""
    from repro.topology.array_mesh import DOWN, LEFT, RIGHT, UP

    if src == dst:
        return ()
    i, j = torus.node_coords(src)
    i2, j2 = torus.node_coords(dst)

    def leg(i, j, target, horizontal):
        size = torus.cols if horizontal else torus.rows
        cur = j if horizontal else i
        forward = (target - cur) % size <= (cur - target) % size
        step = 1 if forward else -1
        edges = []
        while cur != target:
            if horizontal:
                edges.append(torus.directed_edge_id(i, cur, RIGHT if forward else LEFT))
            else:
                edges.append(torus.directed_edge_id(cur, j, DOWN if forward else UP))
            cur = (cur + step) % size
        return (edges, i, cur) if horizontal else (edges, cur, j)

    if column_first:
        first, i, j = leg(i, j, i2, horizontal=False)
        second, _, _ = leg(i, j, j2, horizontal=True)
    else:
        first, i, j = leg(i, j, j2, horizontal=True)
        second, _, _ = leg(i, j, i2, horizontal=False)
    return tuple(first + second)


def kd_walk(array, src, dst, dimension_order):
    """Dimension-order k-d path: one stride step and one ``edge_id``
    lookup per hop."""
    if src == dst:
        return ()
    coord = list(array.node_coords(src))
    target = array.node_coords(dst)
    at = src
    out = []
    for axis in dimension_order:
        step = array.strides[axis]
        while coord[axis] != target[axis]:
            sign = 1 if coord[axis] < target[axis] else -1
            out.append(array.edge_id(at, at + sign * step))
            at += sign * step
            coord[axis] += sign
    return tuple(out)


def hypercube_walk(cube, src, dst):
    """Canonical-order hypercube path via ``dimension_edge``."""
    out = []
    at = src
    for k in range(cube.d):
        if (at ^ dst) >> k & 1:
            out.append(cube.dimension_edge(at, k))
            at ^= 1 << k
    return tuple(out)


def butterfly_walk(butterfly, src, dst):
    """The unique input-to-output butterfly path via ``straight_edge`` /
    ``cross_edge``."""
    _, row = butterfly.node_coords(src)
    _, row_d = butterfly.node_coords(dst)
    out = []
    for level in range(butterfly.d):
        if (row ^ row_d) >> level & 1:
            out.append(butterfly.cross_edge(level, row))
            row ^= 1 << level
        else:
            out.append(butterfly.straight_edge(level, row))
    return tuple(out)
