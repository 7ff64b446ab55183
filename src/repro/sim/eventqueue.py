"""Event-queue classes that no engine builds any more.

Every stochastic-service loop (exponential or per-edge service in the
FIFO/finite kernels and the rushed engine, and the PS engine) runs on a
bare ``heapq`` list. A fresh interleaved calendar-vs-heap measurement
found the heap faster on every one of those loops, so the engines
dropped the *calendar queue* (bucketed event list) defined here.

The module stays for one reason: the benchmark's tracer
(``perfbench/tracing.py``) imports ``CalendarQueue`` and
``HeapEventQueue`` to count calls on them. Its counters read 0 now, and
the module can go once an in-package instrument replaces that tracer.
While ``CalendarQueue`` exists, the parity tests mirror every engine
heap push into one and check that it pops the very same event at every
step of real engine runs.

Bit-identity contract
---------------------
The calendar queue pops events in the exact total order ``heapq`` would:
event tuples start with ``(time, seq)`` and ``seq`` is unique per run, so
the tuple order is total and no comparison ever reaches the payload. The
calendar queue preserves that order structurally — events are bucketed by
``floor(time / width)`` (bucket time ranges are disjoint, so all events of
an earlier bucket precede all events of a later one) and each bucket is
sorted on activation, with same-bucket pushes merged in by ``insort``.
That is what the parity tests check, pop for pop, against the engines'
heaps.

Adaptive bucket widths (Brown's rule)
-------------------------------------
The width starts at a caller's guess (one mean arrival gap suits the
standard model), but the *event* population (not the arrival rate) is
what sets the optimal bucket size, and it drifts with load and queue
depth. ``CalendarQueue`` therefore re-estimates its width from its own
occupancy, following R. Brown's classic calendar-queue resize rule
(CACM 1988): when the pending population doubles past (or shrinks to a
quarter of) the population at the last estimate, sample the earliest
pending events, set the width to three times their average separation,
and rebucket. Resampling happens only at a bucket-activation boundary
(the sorted active run is empty), and rebucketing by *any* positive
width preserves the global ``(time, seq)`` order — bucket ranges stay
disjoint and within-bucket order is restored by the activation sort —
so the adaptive queue pops the exact heap order.
"""

from __future__ import annotations

import heapq
from bisect import insort

#: Adaptive resizing triggers (Brown's rule): re-estimate when the
#: pending population leaves ``[last / 4, last * 2]``, never below a
#: floor that keeps tiny runs on the initial width.
_RESIZE_FLOOR = 512
#: Number of earliest events sampled for the width estimate.
_RESIZE_SAMPLE = 64
#: Brown's multiplier on the sampled average event separation.
_WIDTH_FACTOR = 3.0


# Unused by the engines; kept because perfbench's tracer patches its push/pop.
class HeapEventQueue:
    """``heapq`` behind the calendar queue's push/pop interface."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list = []

    def push(self, item) -> None:
        heapq.heappush(self._heap, item)

    def pop(self):
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class CalendarQueue:
    """Bucketed event list with ``heapq``-identical pop order.

    Parameters
    ----------
    width:
        Initial bucket width in simulation time; it is then
        re-estimated from queue occupancy by Brown's rule (see the
        module docstring). Correctness does not depend on the choice —
        only the append/sort balance does.

    Notes
    -----
    Items must be tuples ordered by their first two fields ``(time,
    seq)`` with ``seq`` unique, times non-negative, and — as in every
    discrete-event loop — no push may carry a time earlier than the last
    pop. A defensive early-item heap keeps even that violation exact
    rather than silently misordered.
    """

    __slots__ = (
        "_width", "_map", "_days", "_count", "_active_day", "_active",
        "_ai", "_early", "_resize_hi", "_resize_lo",
        "resize_count",
    )

    def __init__(self, width: float) -> None:
        if not width > 0:
            raise ValueError(f"bucket width must be > 0, got {width}")
        self._width = float(width)
        self._map: dict[int, list] = {}
        self._days: list[int] = []  # min-heap of bucket indices in _map
        self._count = 0
        self._active_day: int | None = None
        self._active: list = []
        self._ai = 0  # pop cursor into the sorted active bucket
        self._early: list = []  # defensive: pushes behind the active day
        self._resize_hi = _RESIZE_FLOOR
        self._resize_lo = 0
        self.resize_count = 0  # observability for tests/benchmarks

    @property
    def width(self) -> float:
        """The current bucket width (re-estimated as occupancy drifts)."""
        return self._width

    def push(self, item) -> None:
        day = int(item[0] / self._width)
        active_day = self._active_day
        if active_day is not None and day <= active_day:
            if day == active_day:
                # Same-bucket push during processing: merge into the
                # sorted remainder (never before the pop cursor — event
                # times are nondecreasing, ties ordered by the fresh seq).
                insort(self._active, item, lo=self._ai)
            else:
                heapq.heappush(self._early, item)
        else:
            lst = self._map.get(day)
            if lst is None:
                self._map[day] = [item]
                heapq.heappush(self._days, day)
            else:
                lst.append(item)
        self._count += 1

    def _rebucket(self) -> None:
        """Re-estimate the width (Brown's rule) and rebucket all pending
        events. Only called between active buckets, so the global pop
        order is untouched: bucketing by any positive width keeps bucket
        ranges disjoint, and the activation sort restores within-bucket
        order."""
        items: list = list(self._early)
        for lst in self._map.values():
            items.extend(lst)
        n = len(items)
        self._resize_hi = max(_RESIZE_FLOOR, 2 * n)
        self._resize_lo = n // 4
        if n >= 2:
            sample = heapq.nsmallest(min(n, _RESIZE_SAMPLE), items)
            gap = (sample[-1][0] - sample[0][0]) / (len(sample) - 1)
            if gap > 0.0:
                self._width = _WIDTH_FACTOR * gap
        self._map = {}
        for item in items:
            day = int(item[0] / self._width)
            lst = self._map.get(day)
            if lst is None:
                self._map[day] = [item]
            else:
                lst.append(item)
        self._days = list(self._map)
        heapq.heapify(self._days)
        self._early = []
        self._active = []
        self._ai = 0
        self._active_day = None
        self.resize_count += 1

    def pop(self):
        if not self._count:
            raise IndexError("pop from an empty CalendarQueue")
        if self._ai >= len(self._active):
            if not self._days:
                # Only defensively-queued early items remain.
                self._count -= 1
                return heapq.heappop(self._early)
            if not self._resize_lo <= self._count <= self._resize_hi:
                self._rebucket()
            # Activate the next non-empty bucket.
            day = heapq.heappop(self._days)
            bucket = self._map.pop(day)
            bucket.sort()
            self._active = bucket
            self._ai = 0
            self._active_day = day
        if self._early and self._early[0] < self._active[self._ai]:
            self._count -= 1
            return heapq.heappop(self._early)
        item = self._active[self._ai]
        self._ai += 1
        self._count -= 1
        if self._ai >= len(self._active):
            # Bucket exhausted: drop the references now (the list may be
            # large) but keep _active_day so same-day pushes stay exact.
            self._active = []
            self._ai = 0
        return item

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

