"""Replication-engine benchmarks: multi-seed fan-out and the hot sampling
paths it leans on.

``scripts/check.sh`` runs this file with ``--benchmark-json`` so the
fan-out's performance trajectory is recorded across PRs
(``BENCH_replication.json``). Since the engine-registry redesign the
fan-out cells cover every registered engine end-to-end through the
declarative facade — fifo, finite (tail-drop loss), slotted (batched
draw default), rushed and PS — so the perf gate watches every
``CellSpec -> registry -> run_cell`` path. The shared-memory fan-out
work added three cells: the serial/warm-pool 32x32 pair (the warm pool
should beat serial whenever more than one core is available — on a
single-core runner both degenerate to comparable times) and the
parent-side publish/unlink overhead of a shared cell batch.
"""

import numpy as np

from repro.routing.destinations import MatrixDestinations
from repro.scenarios import resolve_cell
from repro.sim.replication import CellSpec, ReplicationEngine
from repro.sim.sharedcells import SharedCellBatch


def test_replication_fanout_serial(once):
    """Four seeded replications of a QUICK uniform cell, in-process."""
    spec = CellSpec(
        scenario="uniform", n=8, rho=0.8, warmup=100, horizon=1000,
        seeds=(0, 1, 2, 3),
    )
    pooled = once(ReplicationEngine(processes=1).run, spec)
    assert len(pooled.replications) == 4
    assert pooled.delay_half_width > 0
    assert pooled.littles_law_gap < 0.15


def test_replication_fanout_processes(once):
    """The same cell fanned over a process pool (measures pool overhead)."""
    spec = CellSpec(
        scenario="uniform", n=8, rho=0.8, warmup=100, horizon=1000,
        seeds=(0, 1, 2, 3),
    )
    pooled = once(ReplicationEngine(processes=4).run, spec)
    assert len(pooled.replications) == 4


#: The heavy fan-out workload of the warm-pool cells: four replications
#: of a 32x32 mesh (1024 nodes, ~10^5 measured packets).
_BIG = dict(
    scenario="uniform", n=32, rho=0.8, warmup=50, horizon=250,
    seeds=(0, 1, 2, 3),
)


def test_replication_serial_32x32(once):
    """The multi-replication 32x32 workload, serial in-process — the
    baseline the warm-pool cell below is compared against (the warm pool
    should win whenever more than one core is available)."""
    pooled = once(ReplicationEngine(processes=1).run, CellSpec(**_BIG))
    assert len(pooled.replications) == 4


def test_replication_warm_pool_32x32(once):
    """The same 32x32 workload on the warm shared-memory pool: workers
    are started and the per-cell memo warmed *before* the timed region
    (the steady-state of a sweep), so the cell times the shared-memory
    publish, the token-sized job dispatch and the streaming fold —
    not pool start-up."""
    engine = ReplicationEngine()  # all cores (REPRO_PROCESSES honoured)
    engine.run(
        CellSpec(
            scenario="uniform", n=4, rho=0.5, warmup=10, horizon=60,
            seeds=(0, 1),
        )
    )
    pooled = once(engine.run, CellSpec(**_BIG))
    assert len(pooled.replications) == 4


def test_sharedcells_publish(benchmark):
    """Parent-side shared-memory publish/unlink for a mixed 3-cell batch
    (arena + dense path tables + mask packing; the per-batch overhead
    the token-sized job payloads buy)."""
    specs = [
        CellSpec(scenario="uniform", n=8, rho=0.6, warmup=100, horizon=1000),
        CellSpec(
            scenario="uniform", n=8, rho=0.9, warmup=100, horizon=1000,
            track_saturated=True,
        ),
        CellSpec(scenario="hotspot", n=8, rho=0.7, warmup=100, horizon=1000),
    ]
    cells = [(spec, *resolve_cell(spec)) for spec in specs]

    def publish():
        batch = SharedCellBatch(cells)
        token = batch.token
        batch.close()
        return token

    token = benchmark(publish)
    assert len(token) == 3


def test_replication_slotted_cell(once):
    """The slotted engine through the registry."""
    spec = CellSpec(
        scenario="uniform", n=8, rho=0.8, engine="slotted",
        warmup=100, horizon=1000, seeds=(0, 1, 2, 3),
    )
    pooled = once(ReplicationEngine(processes=1).run, spec)
    assert len(pooled.replications) == 4
    assert pooled.littles_law_gap < 0.15


def test_replication_rushed_cell(once):
    """The Theorem 10 copies system through the registry (four seeds)."""
    spec = CellSpec(
        scenario="uniform", n=8, rho=0.7, engine="rushed",
        warmup=100, horizon=1000, seeds=(0, 1, 2, 3),
    )
    pooled = once(ReplicationEngine(processes=1).run, spec)
    assert len(pooled.replications) == 4
    assert all(r.completed == r.generated for r in pooled.replications)


def test_replication_finite_cell(once):
    """The finite-buffer loss engine through the registry: same uniform
    cell as the fifo fan-out at a loss-inducing K=2, so the gate times
    the drop-accounting loop (admission tests + per-node counters) on a
    realistic loss level rather than the delegated buffer_size=None
    path."""
    spec = CellSpec(
        scenario="uniform", n=8, rho=0.8, engine="finite",
        warmup=100, horizon=1000, seeds=(0, 1, 2, 3),
        engine_params=(("buffer_size", 2),),
    )
    pooled = once(ReplicationEngine(processes=1).run, spec)
    assert len(pooled.replications) == 4
    assert pooled.dropped > 0
    assert all(
        r.completed + r.dropped == r.generated for r in pooled.replications
    )
    assert 0.0 < pooled.loss_probability < 0.5


def test_replication_ps_cell(once):
    """The Theorem 5 PS comparator through the registry (O(k) per queue
    event, so a smaller cell than the FIFO fan-outs)."""
    spec = CellSpec(
        scenario="uniform", n=6, rho=0.7, engine="ps",
        warmup=100, horizon=600, seeds=(0, 1),
    )
    pooled = once(ReplicationEngine(processes=1).run, spec)
    assert len(pooled.replications) == 2
    assert pooled.littles_law_gap < 0.15


def test_scenario_calibration(benchmark):
    """Generic-solver load calibration for a non-uniform workload."""
    spec = CellSpec(scenario="hotspot", n=8, rho=0.8, track_saturated=True)
    rate, mask = benchmark(resolve_cell, spec)
    assert rate > 0
    assert mask.any()


def test_scenario_calibration_torus(benchmark):
    """Generic-solver calibration of the torus cell the scenario mix
    waits on (closed-form torus routes)."""
    spec = CellSpec(scenario="torus", n=16, rho=0.8, track_saturated=True)
    rate, mask = benchmark(resolve_cell, spec)
    assert rate > 0
    assert mask.any()


def test_matrix_destination_sampling(benchmark):
    """Per-packet CDF sampling (was rng.choice rebuilding the law per draw)."""
    rng = np.random.default_rng(5)
    n = 64
    p = rng.random((n, n))
    p /= p.sum(axis=1, keepdims=True)
    d = MatrixDestinations(p)

    def draw_block():
        r = np.random.default_rng(7)
        return [d.sample(k % n, r) for k in range(2000)]

    out = benchmark(draw_block)
    assert len(out) == 2000
