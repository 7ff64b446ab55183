"""Hot-path throughput benchmarks: all four engines (event, slotted,
rushed, PS), cached vs uncached, 8x8-32x32 meshes.

``scripts/check.sh`` runs this file with ``--benchmark-json`` so the
engine throughput trajectory is recorded across PRs
(``BENCH_engine_hotpath.json``); the warn-only gate in the same script
flags any cell that regresses >25% against the committed baseline.

Every cell is the paper's standard model (uniform traffic, row-first
greedy, deterministic unit service) at rho = 0.8 under the Table I load
convention, window (warmup=20, horizon=120), the same configuration the
frozen pre-PR baselines below were measured with.

Pre-PR baselines (packets/s, best of 3, this container, commit 39a3ef5 —
the engines before the path-cache arena / monotone-merge loop /
vectorized slot kernel):

* event   8x8:   69,575        * slotted  8x8: 118,042
* event  32x32:  18,961        * slotted 32x32: 36,289

The acceptance target for this PR was >= 2x packet throughput on the
32x32 uniform event-engine cell versus those baselines; the recorded
``speedup_vs_pre_pr`` extra-info field documents the measured ratio
(~2.3x warm-cached, ~1.7x cold, slotted ~1.9x at the time of recording). The in-run assertion uses a
soft 1.5x floor so a noisy or slower machine does not fail the gate
spuriously — absolute cross-machine comparisons belong to the warn-only
perf gate, not to hard asserts.

The stochastic-service cells. The exponential 32x32 cell times the
FIFO event-queue loop, which runs on a bare ``heapq`` list: event tuples
lead with a unique ``(time, seq)``, so the pop order is total and is the
order the golden fixtures pin. A fresh interleaved calendar-vs-heap
measurement retired the bucketed calendar queue, with its adaptive
bucket widths, from every engine: the heap won on every stochastic
loop measured, and event times held as Python floats (the variate
blocks become lists) keep its tuple comparisons in C. The rushed engine
(16x16) times its monotone-merge loop with the shared path-cache arena
and blocked draws. The PS engine (8x8) still drains every customer at
an edge on each event there, O(k), but completes the head customer
without a scan: all of an edge's customers drain at the common
``phi / k``, so its works list stays sorted and index 0 is the minimum.

The slotted engine has one draw order (blocked Poisson counts plus
per-slot batches), which ``test_slotted_8x8`` and
``test_slotted_32x32`` time.

The vectorized ``backend="numpy"`` whole-trajectory solver is timed by
the three ``*_numpy`` cells on the 32x32 acceptance configurations
(fifo, slotted, and finite with ``buffer_size=None``). Every round is
cold: a fresh mesh, router and path cache, because the kernels route
greedy meshes in closed form and carry no state from one run to the
next. The fifo and slotted cells record two ratios:
``speedup_vs_pre_pr`` (the frozen baselines above) and
``speedup_vs_python_backend`` (an interleaved same-process timing of the
reference kernel on the identical cold cell); the recorded extra-info
carries the measured values. Soft floors sit well under them, same
discipline as the 1.5x floor on the python cells.
"""

import time

from repro.core.rates import lambda_for_load
from repro.routing.destinations import UniformDestinations
from repro.routing.greedy import GreedyArrayRouter
from repro.routing.pathcache import path_cache_for
from repro.sim.fifo_network import NetworkSimulation
from repro.sim.ps_network import PSNetworkSimulation
from repro.sim.rushed_network import RushedNetworkSimulation
from repro.sim.slotted import SlottedNetworkSimulation
from repro.topology.array_mesh import ArrayMesh

WARMUP, HORIZON = 20.0, 120.0
RHO = 0.8

PRE_PR_EVENT = {8: 69_575.0, 32: 18_961.0}
PRE_PR_SLOTTED = {8: 118_042.0, 32: 36_289.0}
# PR-3 baselines, same protocol (packets/s, best of 3, this container,
# commit b06dc10 — the engines before the PR-3 port): the heap-loop
# exponential cell, plus the pre-port rushed (16x16) and PS (8x8)
# engines (per-packet path rebuild, scalar RNG draws).
PRE_PR_EVENT_EXP_32 = 16_399.0
PRE_PR_RUSHED_16 = 36_411.0
PRE_PR_PS_8 = 34_545.0


def _event_cell(n, *, seed=3, **kwargs):
    mesh = ArrayMesh(n)
    return NetworkSimulation(
        GreedyArrayRouter(mesh),
        UniformDestinations(mesh.num_nodes),
        lambda_for_load(n, RHO, "table1"),
        seed=seed,
        **kwargs,
    )


def _slotted_cell(n, *, seed=4, **kwargs):
    mesh = ArrayMesh(n)
    return SlottedNetworkSimulation(
        GreedyArrayRouter(mesh),
        UniformDestinations(mesh.num_nodes),
        lambda_for_load(n, RHO, "table1"),
        seed=seed,
        **kwargs,
    )


def _record(benchmark, res, pre_pr):
    dt = benchmark.stats.stats.min
    pps = res.generated / dt
    benchmark.extra_info["packets_per_second"] = round(pps)
    benchmark.extra_info["pre_pr_packets_per_second"] = pre_pr
    benchmark.extra_info["speedup_vs_pre_pr"] = round(pps / pre_pr, 3)
    return pps


def test_event_8x8_cached(best_of, benchmark):
    """min-of-3: rounds after the first run against the warmed cache."""
    sim = _event_cell(8)
    res = best_of(sim.run, WARMUP, HORIZON)
    _record(benchmark, res, PRE_PR_EVENT[8])
    assert res.generated > 2000
    assert res.littles_law_gap < 0.15


def test_event_8x8_uncached(best_of, benchmark):
    """Per-packet path rebuild (the pre-cache behaviour) for contrast."""
    sim = _event_cell(8, use_path_cache=False)
    res = best_of(sim.run, WARMUP, HORIZON)
    _record(benchmark, res, PRE_PR_EVENT[8])
    assert res.generated > 2000


def test_event_32x32_cached_warm(best_of, benchmark):
    """The acceptance cell: 32x32 uniform, warm shared cache (the
    replication-engine pattern — every seed after the first runs against
    an already-populated arena)."""
    mesh_router = GreedyArrayRouter(ArrayMesh(32))
    cache = path_cache_for(mesh_router)
    dests = UniformDestinations(1024)
    lam = lambda_for_load(32, RHO, "table1")
    NetworkSimulation(
        mesh_router, dests, lam, seed=3, path_cache=cache
    ).run(WARMUP, HORIZON)  # warm the arena
    sim = NetworkSimulation(mesh_router, dests, lam, seed=3, path_cache=cache)
    res = best_of(sim.run, WARMUP, HORIZON)
    pps = _record(benchmark, res, PRE_PR_EVENT[32])
    assert res.generated > 10_000
    assert res.littles_law_gap < 0.1
    # Soft floor (see module docstring); the recorded extra-info carries
    # the actual measured ratio.
    assert pps > 1.5 * PRE_PR_EVENT[32]


def test_event_32x32_cached_cold(once, benchmark):
    """Same cell with a cold cache: every pair is a first hit, so this
    isolates the loop + miss-path cost (single round — repeating would
    re-run against the warmed cache)."""
    sim = _event_cell(32)
    res = once(sim.run, WARMUP, HORIZON)
    _record(benchmark, res, PRE_PR_EVENT[32])
    assert res.generated > 10_000


def test_event_32x32_uncached(best_of, benchmark):
    sim = _event_cell(32, use_path_cache=False)
    res = best_of(sim.run, WARMUP, HORIZON)
    _record(benchmark, res, PRE_PR_EVENT[32])
    assert res.generated > 10_000


def test_event_32x32_cached_beats_uncached(once, benchmark):
    """Directly pin cache > no-cache on one machine, one process."""

    def both():
        cached = _event_cell(32)
        t0 = time.perf_counter()
        cached.run(WARMUP, HORIZON)
        t_cached = time.perf_counter() - t0
        uncached = _event_cell(32, use_path_cache=False)
        t0 = time.perf_counter()
        uncached.run(WARMUP, HORIZON)
        return t_cached, time.perf_counter() - t0

    t_cached, t_uncached = once(both)
    benchmark.extra_info["cached_over_uncached"] = round(t_uncached / t_cached, 3)
    assert t_cached < t_uncached * 1.05  # cache never loses


def test_event_32x32_exponential(best_of, benchmark):
    """The stochastic-service loop (exponential service) on its
    ``heapq`` event list."""
    sim = _event_cell(32, service="exponential")
    res = best_of(sim.run, WARMUP, HORIZON)
    _record(benchmark, res, PRE_PR_EVENT_EXP_32)
    assert res.generated > 10_000


def test_rushed_16x16(best_of, benchmark):
    """The PR-3-ported rushed engine (Theorem 10 copies) on its
    monotone-merge loop with the shared path-cache arena."""
    mesh = ArrayMesh(16)
    sim = RushedNetworkSimulation(
        GreedyArrayRouter(mesh),
        UniformDestinations(mesh.num_nodes),
        lambda_for_load(16, RHO, "table1"),
        seed=3,
    )
    res = best_of(sim.run, WARMUP, HORIZON)
    _record(benchmark, res, PRE_PR_RUSHED_16)
    assert res.generated > 3000
    assert res.generated == res.completed


def test_ps_8x8(best_of, benchmark):
    """The PR-3-ported PS engine (arena-backed records, cached paths)."""
    mesh = ArrayMesh(8)
    sim = PSNetworkSimulation(
        GreedyArrayRouter(mesh),
        UniformDestinations(mesh.num_nodes),
        lambda_for_load(8, RHO, "table1"),
        seed=3,
    )
    res = best_of(sim.run, WARMUP, HORIZON)
    _record(benchmark, res, PRE_PR_PS_8)
    assert res.generated > 2000
    assert res.generated == res.completed


def _best_seconds(fn, *args, rounds=3, **kwargs):
    """min-of-``rounds`` wall time for the in-test reference timings."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best


def _cold_run(make_sim, *window):
    """Build a fresh simulation (new mesh, router and path cache) and run
    it: one cold round, route construction included."""
    return make_sim().run(*window)


def test_event_32x32_numpy(best_of, benchmark):
    """The vectorized fifo kernel on the acceptance cell (32x32 uniform
    deterministic), cold every round. The interleaved reference timing
    (the python backend on the same cold cell) pins the
    backend-vs-backend ratio within one process, immune to cross-run
    machine drift."""
    t_python = _best_seconds(_cold_run, lambda: _event_cell(32), WARMUP, HORIZON)
    res = best_of(
        _cold_run, lambda: _event_cell(32, backend="numpy"), WARMUP, HORIZON
    )
    pps = _record(benchmark, res, PRE_PR_EVENT[32])
    ratio = t_python / benchmark.stats.stats.min
    benchmark.extra_info["speedup_vs_python_backend"] = round(ratio, 3)
    assert res.generated > 10_000
    assert res.littles_law_gap < 0.1
    # Soft floors (see module docstring).
    assert pps > 4.0 * PRE_PR_EVENT[32]
    assert ratio > 2.5


def test_slotted_32x32_numpy(best_of, benchmark):
    """The vectorized slot kernel on the 32x32 acceptance cell, cold
    every round, against the python slot kernel on the identical cold
    cell."""
    window = (int(WARMUP), int(HORIZON))
    t_python = _best_seconds(_cold_run, lambda: _slotted_cell(32), *window)
    res = best_of(_cold_run, lambda: _slotted_cell(32, backend="numpy"), *window)
    pps = _record(benchmark, res, PRE_PR_SLOTTED[32])
    ratio = t_python / benchmark.stats.stats.min
    benchmark.extra_info["speedup_vs_python_backend"] = round(ratio, 3)
    assert res.generated > 10_000
    # Soft floors (see module docstring).
    assert pps > 4.0 * PRE_PR_SLOTTED[32]
    assert ratio > 2.0


def test_finite_32x32_numpy(best_of, benchmark):
    """The finite-buffer engine on its numpy-backed configuration
    (buffer_size=None — the only combination the vectorized kernel
    accepts, delegated to the FIFO whole-trajectory solver), cold every
    round. This is the bench-coverage cell for the finite x numpy
    registry entry; the python-backend finite loop itself is timed
    indirectly through ``test_replication_finite_cell`` in the
    replication suite."""
    from repro.sim.finite_buffer import FiniteBufferNetworkSimulation

    def make_sim():
        mesh = ArrayMesh(32)
        return FiniteBufferNetworkSimulation(
            GreedyArrayRouter(mesh),
            UniformDestinations(mesh.num_nodes),
            lambda_for_load(32, RHO, "table1"),
            seed=3,
            backend="numpy",
        )

    res = best_of(_cold_run, make_sim, WARMUP, HORIZON)
    pps = _record(benchmark, res, PRE_PR_EVENT[32])
    assert res.generated > 10_000
    # Delegation means fifo-kernel throughput; same soft floor as the
    # event numpy cell.
    assert pps > 4.0 * PRE_PR_EVENT[32]


def test_slotted_8x8(best_of, benchmark):
    """The python slot kernel (blocked Poisson counts + batched ids)."""
    sim = _slotted_cell(8)
    res = best_of(sim.run, int(WARMUP), int(HORIZON))
    _record(benchmark, res, PRE_PR_SLOTTED[8])
    assert res.generated > 2000


def test_slotted_32x32(best_of, benchmark):
    """The python slot kernel (blocked Poisson counts + batched ids)."""
    sim = _slotted_cell(32)
    res = best_of(sim.run, int(WARMUP), int(HORIZON))
    _record(benchmark, res, PRE_PR_SLOTTED[32])
    assert res.generated > 10_000
