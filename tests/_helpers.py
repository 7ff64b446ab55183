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
