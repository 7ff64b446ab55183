"""Processor-sharing network simulation (the Theorem 5 comparator).

Under PS, "all customers queued at a server receive an equal proportion of
the available service simultaneously": with ``k`` customers present at an
edge with rate ``phi``, each one's remaining work drains at ``phi / k``.
Every customer needs one unit of work (the paper's unit service times).

Theorem 1/5 asserts the PS network's total occupancy stochastically
dominates the FIFO network's on every sample path family — and its
equilibrium is the product-form/Jackson law. The dominance experiment
simulates both and checks ``E[N_FIFO] <= E[N_PS]`` plus the distributional
ordering.

Implementation: the classic virtual-completion-event scheme. Each queue
keeps its customers' remaining work, a ``last update`` timestamp and a
version counter; arrival or departure at the queue re-linearises the drain
and re-schedules the (single) next-completion event, bumping the version so
stale entries are skipped on pop. Draining is O(k) per queue event, which
is fine at the modest sizes the PS comparisons run at (its purpose is
validation, not Table-scale statistics). Finding the completing customer
needs no scan: every customer at an edge drains at the same ``phi / k``
and joins with work 1.0, at least any resident's remaining work, and
float subtraction of one common amount is monotone, so each works list
stays nondecreasing. The head customer is therefore always the first
minimum (the one a ``min`` scan would pick), completes by ``del
works[0]``, and its remaining work sets the queue's next completion
time. Because completions are re-planned (truly stochastic event times),
this engine needs a priority queue — the merge loop does not apply — and
that queue is a bare ``heapq`` list, as in the FIFO/rushed/finite
stochastic loops. It shares the rest of the hot-path architecture: paths
come from the shared :mod:`repro.routing.pathcache` arena, packet records
store ``(arena_offset, length)`` views, and the source draw uses the
pinned CDF with ``side='right'`` so a boundary draw can never select a
zero-rate source. The per-packet RNG draw order is
unchanged from the pre-cache engine, and the PS golden cells in
``tests/golden/`` pin the outputs.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Sequence

import numpy as np

from repro.routing.base import Router
from repro.routing.destinations import DestinationDistribution
from repro.sim.enginecommon import (
    NO_FAST_IDS,
    EngineCommon,
    resolve_service_rates,
)
from repro.sim.measurement import TimeBatchAccumulator
from repro.sim.result import SimResult
from repro.sim.rng import make_rng
from repro.util.validation import check_positive


class PSNetworkSimulation:
    """Event-driven processor-sharing network simulation.

    Parameters mirror :class:`repro.sim.NetworkSimulation` (service is
    always unit-work PS; ``use_path_cache`` / ``path_cache`` control the
    shared path-cache arena exactly as there).
    """

    def __init__(
        self,
        router: Router,
        destinations: DestinationDistribution,
        node_rate: float | Sequence[float],
        *,
        service_rates: float | Sequence[float] = 1.0,
        source_nodes: Sequence[int] | None = None,
        seed: int = 0,
        use_path_cache: bool = True,
        path_cache=None,
    ) -> None:
        self.seed = int(seed)
        phi = resolve_service_rates(service_rates, router.topology.num_edges)
        self._phi = phi.tolist()
        # Shared constructor policy. PS has no fast-id block draw
        # (NO_FAST_IDS): every source is drawn through the pinned CDF
        # with side='right', the boundary-safe discipline.
        EngineCommon(
            router,
            destinations,
            node_rate,
            source_nodes=source_nodes,
            fast_id_order=NO_FAST_IDS,
            path_cache=path_cache,
            use_path_cache=use_path_cache,
        ).install(self)

    def run(
        self,
        warmup: float,
        horizon: float,
        *,
        collect_delays: bool = False,
        track_number_distribution: bool = False,
        delay_batches: int = 32,
    ) -> SimResult:
        """Simulate ``warmup + horizon`` time units and drain (see
        :meth:`repro.sim.NetworkSimulation.run` for parameter meanings)."""
        check_positive(horizon, "horizon")
        if warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {warmup}")
        rng = make_rng(self.seed, engine="ps")
        t_end = warmup + horizon
        num_nodes = self.topology.num_nodes
        num_edges = self.topology.num_edges
        phi = self._phi

        # Path cache bindings (see NetworkSimulation.run).
        cache = self.path_cache
        arena = cache.arena.edges  # extended in place; safe to bind once
        if cache.consumes_rng:
            det_get = None
            det_build = None
            sample_offlen = cache.sample_offlen
        else:
            det_get = cache.table.get
            det_build = cache.ensure
            sample_offlen = None

        # Per-queue PS state. Each works list stays nondecreasing (see
        # the module docstring), so index 0 is the next to complete.
        works: list[list[float]] = [[] for _ in range(num_edges)]
        pkts: list[list[list]] = [[] for _ in range(num_edges)]
        last_up = [0.0] * num_edges
        version = [0] * num_edges

        # Event tuples lead with a unique (time, seq), so heap order is a
        # total order that never compares payloads.
        evq: list = []
        seq = 0
        push = heappush
        pop = heappop
        searchsorted = np.searchsorted
        sources = self.source_nodes
        source_cdf = self._source_cdf
        dest_sample = self.destinations.sample

        in_system = 0
        remaining = 0
        int_n = 0.0
        int_r = 0.0
        last_t = 0.0
        generated = completed = zero_hop = 0
        in_flight_at_horizon = 0
        delay_acc = TimeBatchAccumulator(warmup, t_end, delay_batches)
        delays: list[float] | None = [] if collect_delays else None
        ndist: dict[int, float] | None = {} if track_number_distribution else None

        # PS replans one exponential arrival gap per event; the scalar
        # draw order *is* the engine's pinned bit-identity stream (golden
        # ps_* cells), so the blocked-draw convention does not apply.
        push(evq, (rng.exponential(1.0 / self.total_rate), seq, -1, 0))  # replint: disable=rng-discipline
        seq += 1

        draining = False
        while evq:
            t, _s, e, ver = pop(evq)
            if t >= t_end and not draining:
                draining = True
                in_flight_at_horizon = in_system
                lo = last_t if last_t > warmup else warmup
                if t_end > lo:
                    dt = t_end - lo
                    int_n += in_system * dt
                    int_r += remaining * dt
                    if ndist is not None:
                        ndist[in_system] = ndist.get(in_system, 0.0) + dt
                last_t = t_end
            if not draining and t > warmup:
                lo = last_t if last_t > warmup else warmup
                dt = t - lo
                if dt > 0.0:
                    int_n += in_system * dt
                    int_r += remaining * dt
                    if ndist is not None:
                        ndist[in_system] = ndist.get(in_system, 0.0) + dt
                last_t = t
            elif not draining:
                last_t = t

            if e < 0:
                # ----- external arrival -----
                if draining:
                    continue
                # side="right" so a draw landing exactly on a CDF boundary
                # (e.g. u = 0.0 with a leading zero-rate source) never
                # selects a zero-rate source.
                src = sources[
                    int(searchsorted(source_cdf, rng.random(), side="right"))
                ]
                dst = dest_sample(src, rng)
                measured = t >= warmup
                if measured:
                    generated += 1
                if src == dst:
                    if measured:
                        zero_hop += 1
                        completed += 1
                        delay_acc.add(t, 0.0)
                        if delays is not None:
                            delays.append(0.0)
                else:
                    if det_get is not None:
                        ol = det_get(src * num_nodes + dst)
                        if ol is None:
                            ol = det_build(src, dst)
                        off, ln = ol
                    else:
                        off, ln = sample_offlen(src, dst, rng)
                    in_system += 1
                    remaining += ln
                    # Join the first edge: drain it to t, append, re-plan.
                    f = arena[off]
                    w = works[f]
                    k = len(w)
                    if k:
                        dt = t - last_up[f]
                        if dt > 0.0:
                            x = dt * (phi[f] / k)
                            for i in range(k):
                                w[i] -= x
                    last_up[f] = t
                    w.append(1.0)  # unit work per customer
                    # packet record: [birth, arena offset, length, hops
                    # done, measured]
                    # (fresh per-packet record — mutated in place)
                    pkts[f].append([t, off, ln, 0, measured])  # replint: disable=hot-loop-alloc
                    ver = version[f] + 1
                    version[f] = ver
                    push(evq, (t + w[0] * (k + 1) / phi[f], seq, f, ver))
                    seq += 1
                # Same pinned per-event scalar stream as the initial draw.
                push(evq, (t + rng.exponential(1.0 / self.total_rate), seq, -1, 0))  # replint: disable=rng-discipline
                seq += 1
            else:
                # ----- tentative completion at queue e -----
                if ver != version[e]:
                    continue  # stale event
                # Drain queue e to t; the head customer completes.
                w = works[e]
                k = len(w)
                dt = t - last_up[e]
                if dt > 0.0:
                    x = dt * (phi[e] / k)
                    for i in range(k):
                        w[i] -= x
                last_up[e] = t
                del w[0]
                pkt = pkts[e].pop(0)
                remaining -= 1
                hop = pkt[3] + 1
                pkt[3] = hop
                if hop == pkt[2]:
                    in_system -= 1
                    if pkt[4]:
                        completed += 1
                        d = t - pkt[0]
                        delay_acc.add(pkt[0], d)
                        if delays is not None:
                            delays.append(d)
                else:
                    # Join the next edge.
                    f = arena[pkt[1] + hop]
                    wf = works[f]
                    kf = len(wf)
                    if kf:
                        dt = t - last_up[f]
                        if dt > 0.0:
                            x = dt * (phi[f] / kf)
                            for i in range(kf):
                                wf[i] -= x
                    last_up[f] = t
                    wf.append(1.0)
                    pkts[f].append(pkt)
                    ver = version[f] + 1
                    version[f] = ver
                    push(evq, (t + wf[0] * (kf + 1) / phi[f], seq, f, ver))
                    seq += 1
                # Re-plan queue e's next completion.
                ver = version[e] + 1
                version[e] = ver
                k = len(w)
                if k:
                    push(evq, (t + w[0] * k / phi[e], seq, e, ver))
                    seq += 1

        if last_t < t_end:
            lo = last_t if last_t > warmup else warmup
            dt = t_end - lo
            int_n += in_system * dt
            int_r += remaining * dt
            if ndist is not None:
                ndist[in_system] = ndist.get(in_system, 0.0) + dt

        mean_number = int_n / horizon
        summary = delay_acc.summary()
        if ndist is not None:
            total_dt = sum(ndist.values())
            ndist = {k: v / total_dt for k, v in sorted(ndist.items())}
        return SimResult(
            warmup=warmup,
            horizon=horizon,
            seed=self.seed,
            generated=generated,
            completed=completed,
            zero_hop=zero_hop,
            in_flight_at_end=in_flight_at_horizon,
            mean_number=mean_number,
            mean_remaining=int_r / horizon,
            mean_remaining_saturated=float("nan"),
            mean_delay=summary.mean,
            delay_half_width=summary.half_width,
            mean_delay_littles=mean_number / self.total_rate,
            total_rate=self.total_rate,
            delays=np.asarray(delays) if delays is not None else None,
            number_distribution=ndist,
        )
