"""Tests for the calendar queue (repro.sim.eventqueue).

The only contract that matters is *heapq-identical pop order*: the
simulators' golden fixtures pin outputs, so any ordering drift in the
queue is a correctness bug, not a performance detail.
"""

import heapq
import random

import pytest

from repro.sim.eventqueue import CalendarQueue, HeapEventQueue


def _random_workload(rng, width, steps=400):
    """Interleaved push/pop trace compared item-by-item against heapq."""
    cq = CalendarQueue(width)
    h = []
    seq = 0
    t = 0.0
    while steps:
        steps -= 1
        if rng.random() < 0.55 or not h:
            for _ in range(rng.randint(1, 3)):
                item = (
                    t + rng.expovariate(1.0) * rng.choice([0.01, 1.0, 40.0]),
                    seq,
                    rng.randint(-1, 5),
                    None,
                )
                cq.push(item)
                heapq.heappush(h, item)
                seq += 1
        else:
            got, want = cq.pop(), heapq.heappop(h)
            assert got == want
            t = got[0]
    while h:
        assert cq.pop() == heapq.heappop(h)
    assert len(cq) == 0 and not cq


class TestCalendarQueue:
    @pytest.mark.parametrize("width", [1e-3, 0.05, 1.0, 7.3])
    def test_matches_heapq_order_exactly(self, width):
        rng = random.Random(width)
        for _ in range(20):
            _random_workload(rng, width)

    def test_simultaneous_events_pop_in_seq_order(self):
        cq = CalendarQueue(0.5)
        items = [(1.0, s, s % 3, None) for s in range(10)]
        for item in reversed(items):
            cq.push(item)
        assert [cq.pop() for _ in items] == items

    def test_same_bucket_push_during_processing(self):
        """A push into the active bucket lands in exact order."""
        cq = CalendarQueue(10.0)  # everything in one bucket
        cq.push((1.0, 0, 0, None))
        cq.push((5.0, 1, 0, None))
        assert cq.pop() == (1.0, 0, 0, None)
        cq.push((3.0, 2, 0, None))  # active-bucket insert
        assert cq.pop() == (3.0, 2, 0, None)
        assert cq.pop() == (5.0, 1, 0, None)

    def test_defensive_early_push_stays_ordered(self):
        """A push behind the active bucket (impossible in the engines,
        guarded anyway) still pops in exact order."""
        cq = CalendarQueue(1.0)
        cq.push((5.5, 0, 0, None))
        assert cq.pop() == (5.5, 0, 0, None)  # active bucket is now day 5
        cq.push((0.5, 1, 0, None))  # behind the active day
        cq.push((5.7, 2, 0, None))
        assert cq.pop() == (0.5, 1, 0, None)
        assert cq.pop() == (5.7, 2, 0, None)
        assert len(cq) == 0

    def test_pop_empty_raises(self):
        cq = CalendarQueue(1.0)
        with pytest.raises(IndexError):
            cq.pop()
        cq.push((1.0, 0, 0, None))
        cq.pop()
        with pytest.raises(IndexError):
            cq.pop()

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            CalendarQueue(0.0)
        with pytest.raises(ValueError):
            CalendarQueue(-1.0)


class TestAdaptiveWidths:
    """Brown's-rule resizing: the width tracks the event population, and
    rebucketing never perturbs the heapq pop order."""

    def _backlog(self, queue, n, scale, seed=5):
        rng = random.Random(seed)
        items = []
        for s in range(n):
            items.append((rng.expovariate(1.0) * scale + 1.0, s, 0, None))
        for item in items:
            queue.push(item)
        return sorted(items)

    def test_resize_triggers_and_adapts_width(self):
        """A backlog far above the resize floor with a wildly wrong
        initial width gets re-estimated to the event spacing scale."""
        cq = CalendarQueue(1e6)  # absurd initial width
        want = self._backlog(cq, 2000, 10.0)
        got = [cq.pop() for _ in want]
        assert got == want
        assert cq.resize_count >= 1
        # Brown's estimate: ~3x the average separation of the sampled
        # earliest events — orders of magnitude below the initial guess.
        assert cq.width < 1e3

    def test_adaptive_matches_heapq_with_interleaved_pushes(self):
        """The full DES pattern — pops interleaved with pushes at and
        after the current time — across multiple resizes."""
        rng = random.Random(99)
        cq = CalendarQueue(1e5)
        h = []
        seq = 0
        for _ in range(1500):
            item = (rng.expovariate(1.0) * 25.0, seq, 0, None)
            cq.push(item)
            heapq.heappush(h, item)
            seq += 1
        while h:
            got, want = cq.pop(), heapq.heappop(h)
            assert got == want
            if rng.random() < 0.5:
                item = (got[0] + rng.expovariate(2.0), seq, 1, None)
                cq.push(item)
                heapq.heappush(h, item)
                seq += 1
        assert not cq
        assert cq.resize_count >= 1

    def test_early_items_survive_a_resize(self):
        """Defensively-queued early items are folded into the rebucketed
        map without losing their place in the total order."""
        cq = CalendarQueue(1.0)
        cq.push((5.5, 0, 0, None))
        assert cq.pop() == (5.5, 0, 0, None)
        cq.push((0.5, 1, 0, None))  # behind the active day -> early heap
        # Pile on enough future work to cross the resize floor.
        want = self._backlog(cq, 1500, 3.0, seed=7)
        assert cq.pop() == (0.5, 1, 0, None)
        rest = [cq.pop() for _ in want]
        assert rest == want
        assert len(cq) == 0


class TestHeapEventQueue:
    def test_heap_adapter_matches_heapq(self):
        q = HeapEventQueue()
        items = [(3.0, 0), (1.0, 1), (2.0, 2)]
        for item in items:
            q.push(item)
        assert len(q) == 3 and q
        assert [q.pop() for _ in items] == sorted(items)
        assert not q

    def test_len_tracks_interleaved_pushes_and_pops(self):
        q = HeapEventQueue()
        q.push((2.0, 0))
        q.push((1.0, 1))
        assert len(q) == 2
        assert q.pop() == (1.0, 1)
        q.push((0.5, 2))
        assert len(q) == 2
        assert q.pop() == (0.5, 2)
        assert q.pop() == (2.0, 0)
        assert len(q) == 0

    def test_pop_empty_raises_like_calendar(self):
        """Both queues signal exhaustion the same way."""
        for q in (HeapEventQueue(), CalendarQueue(1.0)):
            with pytest.raises(IndexError):
                q.pop()
