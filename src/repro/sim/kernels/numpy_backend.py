"""Vectorized kernels: whole-trajectory max-plus solves over the arena.

Instead of replaying the event loop, these kernels exploit the structure
of the two regimes the python backend's hot loops already isolate:

* **uniform deterministic FIFO service** (the event engine's
  monotone-merge regime) — at a single FIFO server with constant service
  time ``c`` the departure of the ``k``-th arrival (in arrival order) is
  the Lindley recurrence ``d_k = max(x_k, d_{k-1}) + c``, which has the
  closed form ``d_k = (k+1)c + cummax_j<=k (x_j - j c)``: one segmented
  cumulative maximum per edge, no loop over events;
* **slotted unit transmissions** — the integer analogue
  ``d_k = max(g_k, d_{k-1} + 1) = k + cummax(g_j - j)`` over eligibility
  slots ``g``.

Whole-network solve: when the route set is *feedforward* — the
edge-precedence relation "``e`` is visited immediately before ``f`` on
some used path" is acyclic, true for dimension-ordered routing on
meshes, k-d arrays, hypercubes and butterflies — edges can be processed
level by level. All hop-0 eligibility times are known (packet creation),
so level-0 edges are solved with one segmented cummax, their departures
become the eligibility times of the next hops, and so on. Every visit
to an edge sits in that edge's level, in generation order, so any level
assignment that strictly increases along every route yields the same
departures bit for bit (barring exactly equal float arrival times at
one FIFO edge, which have measure zero).

Routes and levels come from one of two places:

* **closed form** — routers with both ``route_batch`` and
  ``edge_levels`` whose paths draw no RNG
  (:class:`~repro.routing.greedy.GreedyArrayRouter` in both orders on
  square and rectangular meshes, and
  :class:`~repro.routing.hypercube_greedy.GreedyHypercubeRouter`): all
  routes are arithmetic on coordinates or bits, emitted as one ``int32``
  edge array in a few array ops, and the router's static per-edge
  levels order the sweep. No path cache is touched.
* **cache fallback** — every other router (the randomized greedy
  scheme, other RNG-drawing routers, which the ``SampledPathInterner``
  serves, deterministic routers without a ``route_batch`` such as the
  k-d array and butterfly, and the torus, whose ``route_batch`` has no
  static levels to go with it): one batch lookup through the path
  cache, the arena's ``int32`` snapshot (``PathArena.gather``) as the
  visit array, and levels from a per-run precedence fixpoint. Torus
  wraparound or mixed-order randomized routes create precedence cycles;
  the fixpoint detects that and raises a ``ValueError`` pointing back
  to ``backend='python'``.

Either way visits are the concatenation of every routed packet's path,
and all statistics (occupancy/remaining-work integrals, delay batch
means, in-flight counts) are exact window-overlap reductions over the
per-visit departure times — the same integrals the reference loops
accumulate incrementally.

Contract
--------
Draws are seed-stable but **not** draw-order-identical to the python
backend (one blocked draw per kind for the whole run, not per event or
per slot); parity is pinned at distribution level — see the two-backend
contract in :mod:`repro.sim`. The draw order, for regression pinning:

* fifo: exponential gap blocks (cumulative arrival times) until the
  horizon is passed; then one id-pair block (fast-id networks) or one
  source block (uniform integers, or one ``random(m)`` + CDF
  ``searchsorted(..., side="right")``) followed by one destination
  ``sample_batch``; then the routes of the routed pairs. Closed-form
  routes draw nothing; on the cache fallback the randomized greedy
  scheme draws one ``random(k)`` coin block for its ``k`` routed pairs,
  and an interned router draws whatever its ``sample_path`` draws, pair
  by pair.
* slotted: per-slot Poisson counts in 8192-size blocks (the same block
  discipline as the python backend), then the same
  id/source/destination/route batches as fifo, once for all slots.

Unsupported options raise ``ValueError`` rather than silently diverge:
``track_utilization``, ``track_number_distribution`` and
``track_maxima`` (order statistics need the event interleaving),
finite buffers (state-dependent admission breaks the
max-plus decomposition; rejected at construction), and non-uniform or
exponential service for fifo (rejected at construction).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.routing.base import is_deterministic
from repro.sim.measurement import TimeBatchAccumulator
from repro.sim.result import SimResult
from repro.sim.rng import make_rng

_BLOCK = 8192

#: Cells above this in a level's (segments x max-run) cummax rectangle
#: switch to the per-segment loop to bound memory.
_RECT_LIMIT = 1 << 25

_NEG = np.iinfo(np.int32).min // 2

_I16_MAX = np.iinfo(np.int16).max


def _reject(option: str, engine: str) -> None:
    raise ValueError(
        f"backend='numpy' does not support {option} on the {engine} "
        f"engine (it needs the event interleaving); use backend='python'"
    )


def _edge_levels(
    num_edges: int, visit_edge: np.ndarray, cum0: np.ndarray
) -> np.ndarray:
    """Topological level of every edge under this run's used-path
    precedence — the levels of routers without static ``edge_levels``.

    ``lvl[e] = 0`` for edges never preceded on any used path, else one
    more than the deepest predecessor. Computed as a vectorized fixpoint
    over the deduplicated consecutive-visit pairs ``prev -> nxt`` of each
    packet (packet ``i``'s visits start at ``cum0[i]``); a route set with
    a precedence cycle never converges and is rejected within
    ``#distinct edges + 1`` sweeps.
    """
    lvl = np.zeros(num_edges, dtype=np.int64)
    same_packet = np.ones(visit_edge.size - 1, dtype=bool)
    same_packet[cum0[1:-1] - 1] = False
    prev = visit_edge[:-1][same_packet].astype(np.int64)
    nxt = visit_edge[1:][same_packet].astype(np.int64)
    if prev.size == 0:
        return lvl
    pairs = np.unique(prev * num_edges + nxt)
    prev = pairs // num_edges
    nxt = pairs % num_edges
    distinct = np.unique(np.concatenate((prev, nxt))).size
    for _ in range(distinct + 1):
        new = lvl.copy()
        np.maximum.at(new, nxt, lvl[prev] + 1)
        if np.array_equal(new, lvl):
            return lvl
        lvl = new
    raise ValueError(
        "backend='numpy' requires feedforward routing (an acyclic "
        "edge-precedence relation over the used paths); this route set "
        "has a cycle — e.g. torus wraparound or mixed-order randomized "
        "routes — use backend='python'"
    )


def _segments(
    e_sorted: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start offsets, per-element segment id and within-segment index of
    the equal-edge runs of an edge-sorted array."""
    n = e_sorted.size
    diff = e_sorted[1:] != e_sorted[:-1]
    seg_id = np.zeros(n, dtype=np.int32)
    np.cumsum(diff, out=seg_id[1:])
    starts = np.flatnonzero(np.concatenate(([True], diff)))
    idx = np.arange(n, dtype=np.int32) - starts.astype(np.int32)[seg_id]
    return starts, seg_id, idx


def _rectangle_cummax(
    seg_id: np.ndarray,
    idx: np.ndarray,
    shifted: np.ndarray,
    sentinel: float,
    dtype: Any,
) -> np.ndarray:
    """Segmented cumulative max via one (segments x max-run) rectangle."""
    n_seg = int(seg_id[-1]) + 1
    width = int(idx.max()) + 1
    mat = np.full((n_seg, width), sentinel, dtype=dtype)
    mat[seg_id, idx] = shifted
    np.maximum.accumulate(mat, axis=1, out=mat)
    return mat[seg_id, idx]


def _loop_cummax(starts: np.ndarray, shifted: np.ndarray) -> np.ndarray:
    """Segmented cumulative max via a per-segment loop (memory fallback)."""
    out = shifted.copy()
    bounds = np.append(starts, shifted.size)
    for s0, s1 in zip(bounds[:-1], bounds[1:]):
        np.maximum.accumulate(out[s0:s1], out=out[s0:s1])
    return out


def _sorted_by_edge_then(
    key: np.ndarray, e_s: np.ndarray, e_span: int
) -> np.ndarray:
    """Indices sorting by ``e_s`` with ``key``'s order inside each edge:
    one comparison sort on ``key``, then a stable int16 radix pass on
    the edge ids when they fit (they are topology edge ids, so they do
    for every paper-scale network)."""
    o1 = np.argsort(key)
    if e_s.size == 0:
        return o1
    e_o = e_s[o1]
    if e_span < _I16_MAX:
        return o1[np.argsort(e_o.astype(np.int16), kind="stable")]
    return o1[np.argsort(e_o, kind="stable")]


def _fifo_departures(
    e_s: np.ndarray, x_s: np.ndarray, c: float, e_span: int
) -> np.ndarray:
    """Departure times of one level's visits: FIFO order is arrival
    order (float eligibility ties have measure zero)."""
    order = _sorted_by_edge_then(x_s, e_s, e_span)
    e_o = e_s[order]
    x_o = x_s[order]
    starts, seg_id, idx = _segments(e_o)
    shifted = x_o - idx * c
    if len(starts) * (int(idx.max()) + 1) <= _RECT_LIMIT:
        cm = _rectangle_cummax(seg_id, idx, shifted, -np.inf, np.float64)
    else:
        cm = _loop_cummax(starts, shifted)
    d = np.empty_like(x_s)
    d[order] = cm + (idx + 1) * c
    return d


def _slot_departures(
    e_s: np.ndarray, g_s: np.ndarray, is_new: np.ndarray, e_span: int
) -> np.ndarray:
    """Departure slots of one level's visits. Queue (join) order at an
    edge is exactly ``(eligibility slot, movers-before-new-arrivals)``:
    slot-``s`` arrivals join before end-of-slot-``s`` movers, which join
    before slot-``s+1`` arrivals, and the movers' eligibility is
    ``s + 1``. Equal joins keep the input (visit) order — a
    distribution-level tie only; the reference engine's same-slot mover
    order is set-iteration order."""
    # Both keys are small non-negative ints, so two stable int16 radix
    # passes replace the 4-pass comparison lexsort. Stability chains:
    # the second pass (by edge) preserves the first pass's
    # (slot, movers-first, visit-order) order within each edge.
    g0 = int(g_s.min()) if g_s.size else 0
    g_span = (int(g_s.max()) - g0 + 1) if g_s.size else 1
    k1 = ((g_s - g0) << 1) + is_new
    if 2 * g_span < _I16_MAX and e_span < _I16_MAX:
        o1 = np.argsort(k1.astype(np.int16), kind="stable")
        order = o1[np.argsort(e_s[o1].astype(np.int16), kind="stable")]
    else:  # pathological ranges: comparison sorts, same key order
        o1 = np.argsort(k1, kind="stable")
        order = o1[np.argsort(e_s[o1], kind="stable")]
    e_o = e_s[order]
    g_o = g_s[order]
    starts, seg_id, idx = _segments(e_o)
    shifted = g_o - idx
    if len(starts) * (int(idx.max()) + 1) <= _RECT_LIMIT:
        cm = _rectangle_cummax(seg_id, idx, shifted, _NEG, shifted.dtype)
    else:
        cm = _loop_cummax(starts, shifted)
    d = np.empty_like(g_s)
    d[order] = cm + idx
    return d


def _level_order(lvl_vis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable level sort of the visits plus per-level slice bounds.

    The stable sort keeps visits in generation order inside each level
    (each packet appears at most once per level, so this is also
    packet order — the slotted tie-break relies on it). On int16 keys
    the stable sort is a radix pass — much faster than a comparison sort
    on these few-distinct-value keys."""
    max_lvl = int(lvl_vis.max())
    order = np.argsort(lvl_vis, kind="stable")
    bounds = np.searchsorted(lvl_vis[order], np.arange(max_lvl + 2))
    return order, bounds


def _level_layout(
    levels: np.ndarray | None,
    num_edges: int,
    visit_edge: np.ndarray,
    cum0: np.ndarray,
    nvis: int,
) -> tuple[np.ndarray, ...]:
    """Static per-run structure of the level sweep, in *level layout*
    (visits stably sorted by level): the solve loop then reads its
    static inputs as contiguous slices and only the dynamic
    eligibility array needs scattered writes.

    Returns ``(order, bounds, inv, e_lv, new_lv, hn_lv, nxt_lv)`` —
    the level sort and its inverse, per-visit edge ids, first-hop and
    has-next flags in level layout, and each visit's next hop's
    level-layout position (valid where ``hn_lv``).

    ``levels`` is the router's static per-edge order, or ``None`` to
    derive one from this run's routes. Any assignment that strictly
    increases along every route gives the same departures: all visits
    of an edge share one level and keep generation order inside it."""
    if levels is None:
        levels = _edge_levels(num_edges, visit_edge, cum0)
    if int(levels.max()) < _I16_MAX:
        levels = levels.astype(np.int16)  # radix-sortable level keys
    order, bounds = _level_order(levels[visit_edge])
    inv = np.empty(nvis, dtype=np.int64)
    inv[order] = np.arange(nvis, dtype=np.int64)
    e_lv = visit_edge[order]
    # Scatter the boundary flags straight into level layout (one small
    # scatter per flag instead of a full-size gather).
    new_lv = np.zeros(nvis, dtype=bool)
    new_lv[inv[cum0[:-1]]] = True
    hn_lv = np.ones(nvis, dtype=bool)
    hn_lv[inv[cum0[1:] - 1]] = False  # last hop has no next edge
    nxt_lv = inv[np.minimum(order + 1, nvis - 1)]
    return order, bounds, inv, e_lv, new_lv, hn_lv, nxt_lv


def run_fifo(
    sim: Any,
    warmup: float,
    horizon: float,
    *,
    track_utilization: bool = False,
    collect_delays: bool = False,
    track_number_distribution: bool = False,
    track_maxima: bool = False,
    delay_batches: int = 32,
) -> SimResult:
    """Vectorized uniform-deterministic FIFO kernel (max-plus solve)."""
    if track_utilization:
        _reject("track_utilization", "fifo")
    if track_number_distribution:
        _reject("track_number_distribution", "fifo")
    if track_maxima:
        _reject("track_maxima", "fifo")
    rng = make_rng(sim.seed, engine="fifo", backend="numpy")
    t_end = warmup + horizon
    gap_scale = 1.0 / sim.total_rate
    num_nodes = sim.topology.num_nodes
    num_edges = sim.topology.num_edges
    c = sim._service_times[0]
    sat = sim._sat
    sat_arr = None if sat is None else np.asarray(sat, dtype=bool)

    # ---- draws (see the module docstring's draw-order spec) ----
    blocks = []
    offset = 0.0
    while offset < t_end:
        blk = offset + np.cumsum(rng.exponential(size=_BLOCK)) * gap_scale
        offset = float(blk[-1])
        blocks.append(blk)
    r_t = np.concatenate(blocks)
    r_t = r_t[r_t < t_end]  # arrivals at/after the horizon are discarded
    m = r_t.size
    srcs, dsts = _draw_ids(sim, m, num_nodes, rng)

    measured = r_t >= warmup
    generated = int(measured.sum())
    zero = srcs == dsts
    zero_hop = int((measured & zero).sum())

    nz = ~zero
    a_t = r_t[nz]  # routed packets' creation times
    mr = measured[nz]
    lens, visit_edge, levels = _draw_paths(sim, srcs[nz], dsts[nz], rng)

    # ---- solve ----
    if visit_edge.size:
        nvis = visit_edge.size
        cum0 = np.concatenate(([0], np.cumsum(lens)))
        order, bounds, inv, e_lv, new_lv, hn_lv, nxt_lv = _level_layout(
            levels, num_edges, visit_edge, cum0, nvis
        )
        x_lv = np.empty(nvis)
        x_lv[inv[cum0[:-1]]] = a_t
        dep_lv = np.empty(nvis)
        for lev in range(bounds.size - 1):
            lo, hi = int(bounds[lev]), int(bounds[lev + 1])
            if lo == hi:
                continue
            d_sel = _fifo_departures(e_lv[lo:hi], x_lv[lo:hi], c, num_edges)
            dep_lv[lo:hi] = d_sel
            hn = hn_lv[lo:hi]
            x_lv[nxt_lv[lo:hi][hn]] = d_sel[hn]
        dep = np.empty(nvis)
        dep[order] = dep_lv
        d_final = dep[cum0[1:] - 1]
    else:
        cum0 = np.zeros(1, dtype=np.int64)
        dep = np.empty(0)
        d_final = np.empty(0)

    # ---- exact window-overlap statistics ----
    int_n = float(
        np.maximum(
            np.minimum(d_final, t_end) - np.maximum(a_t, warmup), 0.0
        ).sum()
    )
    a_vis = np.repeat(a_t, lens) if visit_edge.size else np.empty(0)
    overlap = np.minimum(dep, t_end)
    overlap -= np.maximum(a_vis, warmup)
    np.maximum(overlap, 0.0, out=overlap)
    int_r = float(overlap.sum())
    int_rs = (
        float(overlap[sat_arr[visit_edge]].sum())
        if sat_arr is not None and visit_edge.size
        else 0.0
    )
    in_flight = int((d_final >= t_end).sum())

    delay_acc = TimeBatchAccumulator(warmup, t_end, delay_batches)
    routed_delay = d_final - a_t
    delay_acc.add_batch(a_t[mr], routed_delay[mr])
    zero_ts = r_t[measured & zero]
    delay_acc.add_batch(zero_ts, np.zeros(zero_ts.size))

    delays = None
    if collect_delays:
        comp_t = np.concatenate((zero_ts, d_final[mr]))
        vals = np.concatenate((np.zeros(zero_ts.size), routed_delay[mr]))
        delays = vals[np.argsort(comp_t, kind="stable")]

    mean_number = int_n / horizon
    summary = delay_acc.summary()
    return SimResult(
        warmup=warmup,
        horizon=horizon,
        seed=sim.seed,
        generated=generated,
        completed=generated,  # every measured packet completes after drain
        zero_hop=zero_hop,
        in_flight_at_end=in_flight,
        mean_number=mean_number,
        mean_remaining=int_r / horizon,
        mean_remaining_saturated=(
            int_rs / horizon if sat_arr is not None else float("nan")
        ),
        mean_delay=summary.mean,
        delay_half_width=summary.half_width,
        mean_delay_littles=mean_number / sim.total_rate,
        total_rate=sim.total_rate,
        delays=delays,
    )


def run_slotted(
    sim: Any,
    warmup_slots: int,
    horizon_slots: int,
    *,
    delay_batches: int = 32,
    track_maxima: bool = False,
    collect_delays: bool = False,
) -> SimResult:
    """Vectorized slotted kernel (integer max-plus over slots)."""
    if track_maxima:
        _reject("track_maxima", "slotted")
    rng = make_rng(sim.seed, engine="slotted", backend="numpy")
    tau = sim.tau
    warmup = warmup_slots * tau
    horizon = horizon_slots * tau
    t_end_slot = warmup_slots + horizon_slots
    batch_mean = sim.total_rate * tau
    num_nodes = sim.topology.num_nodes
    num_edges = sim.topology.num_edges
    sat = sim._sat
    sat_arr = None if sat is None else np.asarray(sat, dtype=bool)

    # ---- draws: Poisson count blocks, then one batch of everything ----
    counts = np.empty(t_end_slot, dtype=np.int64)
    drawn = 0
    while drawn < t_end_slot:
        size = min(_BLOCK, t_end_slot - drawn)
        counts[drawn : drawn + size] = rng.poisson(batch_mean, size=size)
        drawn += size
    slots = np.repeat(np.arange(t_end_slot, dtype=np.int32), counts)
    m = slots.size
    srcs, dsts = _draw_ids(sim, m, num_nodes, rng)

    measured = slots >= warmup_slots
    generated = int(measured.sum())
    zero = srcs == dsts
    zero_hop = int((measured & zero).sum())

    nz = ~zero
    a_s = slots[nz]  # routed packets' generation slots
    mr = measured[nz]
    lens, visit_edge, levels = _draw_paths(sim, srcs[nz], dsts[nz], rng)

    # ---- solve ----
    if visit_edge.size:
        nvis = visit_edge.size
        cum0 = np.concatenate(([0], np.cumsum(lens)))
        order, bounds, inv, e_lv, new_lv, hn_lv, nxt_lv = _level_layout(
            levels, num_edges, visit_edge, cum0, nvis
        )
        g_lv = np.empty(nvis, dtype=np.int32)
        g_lv[inv[cum0[:-1]]] = a_s
        dep_lv = np.empty(nvis, dtype=np.int32)
        for lev in range(bounds.size - 1):
            lo, hi = int(bounds[lev]), int(bounds[lev + 1])
            if lo == hi:
                continue
            d_sel = _slot_departures(
                e_lv[lo:hi], g_lv[lo:hi], new_lv[lo:hi], num_edges
            )
            dep_lv[lo:hi] = d_sel
            hn = hn_lv[lo:hi]
            # delivered at the end of slot d -> eligible in slot d + 1
            g_lv[nxt_lv[lo:hi][hn]] = d_sel[hn] + 1
        dep = np.empty(nvis, dtype=np.int32)
        dep[order] = dep_lv
        d_final = dep[cum0[1:] - 1]
    else:
        cum0 = np.zeros(1, dtype=np.int64)
        dep = np.empty(0, dtype=np.int32)
        d_final = np.empty(0, dtype=np.int32)

    # ---- inclusive-slot window statistics ----
    # A packet occupies the system during slots [a, d_final] (it leaves
    # at the end of slot d_final); hop h's remaining-work unit exists
    # during slots [a, d_h]. The reference loop integrates state over
    # measuring slots [W, L], tau per slot.
    last = t_end_slot - 1
    int_n = tau * float(
        np.maximum(
            np.minimum(d_final, last) - np.maximum(a_s, warmup_slots) + 1, 0
        ).sum()
    )
    a_vis = (
        np.repeat(a_s, lens)
        if visit_edge.size
        else np.empty(0, dtype=np.int64)
    )
    overlap = np.minimum(dep, last)
    overlap -= np.maximum(a_vis, warmup_slots)
    overlap += 1
    np.maximum(overlap, 0, out=overlap)
    int_r = tau * float(overlap.sum())
    int_rs = (
        tau * float(overlap[sat_arr[visit_edge]].sum())
        if sat_arr is not None and visit_edge.size
        else 0.0
    )
    in_flight = int((d_final >= last).sum())

    delay_acc = TimeBatchAccumulator(warmup, warmup + horizon, delay_batches)
    birth_t = a_s * tau
    routed_delay = (d_final + 1 - a_s) * tau  # arrival is end of slot d
    delay_acc.add_batch(birth_t[mr], routed_delay[mr])
    zero_ts = slots[measured & zero] * tau
    delay_acc.add_batch(zero_ts, np.zeros(zero_ts.size))

    delays = None
    if collect_delays:
        comp_t = np.concatenate((zero_ts, (d_final[mr] + 1) * tau))
        vals = np.concatenate((np.zeros(zero_ts.size), routed_delay[mr]))
        delays = vals[np.argsort(comp_t, kind="stable")]

    mean_number = int_n / horizon
    summary = delay_acc.summary()
    return SimResult(
        warmup=warmup,
        horizon=horizon,
        seed=sim.seed,
        generated=generated,
        completed=generated,  # every measured packet completes after drain
        zero_hop=zero_hop,
        in_flight_at_end=in_flight,
        mean_number=mean_number,
        mean_remaining=int_r / horizon,
        mean_remaining_saturated=(
            int_rs / horizon if sat_arr is not None else float("nan")
        ),
        mean_delay=summary.mean,
        delay_half_width=summary.half_width,
        mean_delay_littles=mean_number / sim.total_rate,
        total_rate=sim.total_rate,
        delays=delays,
    )


def _draw_ids(
    sim: Any, m: int, num_nodes: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One blocked source/destination draw for the whole run."""
    if sim._fast_ids:
        ids = rng.integers(0, num_nodes, size=2 * m)
        return ids[0::2], ids[1::2]
    source_arr = np.asarray(sim.source_nodes, dtype=np.int64)
    if sim._uniform_sources:
        srcs = source_arr[rng.integers(0, source_arr.size, size=m)]
    else:
        # side="right": a draw landing exactly on a CDF boundary must
        # not select a zero-rate source (the reference loops' contract).
        srcs = source_arr[
            np.searchsorted(sim._source_cdf, rng.random(m), side="right")
        ]
    law = sim.destinations
    sample_batch = getattr(law, "sample_batch", None)
    if sample_batch is not None:
        dsts = np.asarray(sample_batch(srcs, rng), dtype=np.int64)
    else:
        dsts = np.asarray(
            [law.sample(int(s), rng) for s in srcs.tolist()],
            dtype=np.int64,
        )
    return srcs, dsts


def _draw_paths(
    sim: Any,
    srcs: np.ndarray,
    dsts: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """All routed packets' paths as ``(lens, visit_edge, levels)``.

    Routers with a closed form (``route_batch`` plus static
    ``edge_levels``) whose paths draw no RNG are routed directly, with
    no path cache. Otherwise one batch lookup goes through the path
    cache — drawing the randomized scheme's coins, if any — and the
    arena snapshot is taken *after* the lookup grew the arena;
    ``levels`` is then ``None`` and the solve derives them per run.
    """
    router = sim.router
    closed_form = all(
        hasattr(router, name) for name in ("route_batch", "edge_levels")
    )
    if closed_form and is_deterministic(router):
        lens, visit_edge = router.route_batch(srcs, dsts)
        return lens, visit_edge, router.edge_levels()
    cache = sim.path_cache
    if cache.consumes_rng:
        offs, lens = cache.sample_offlen_batch(srcs, dsts, rng)
    else:
        offs, lens = cache.offlen_batch(srcs, dsts)
    lens = np.asarray(lens, dtype=np.int64)
    return lens, cache.arena.gather(offs, lens), None
