"""The benchmark's workloads: a workload seed -> a list of CellSpec fields.

Each workload is a function of the workload seed only. It returns plain
dicts of :class:`repro.sim.replication.CellSpec` keyword arguments (JSON
friendly), so ``run.py`` can hand them to a fresh interpreter, which builds
the ``CellSpec`` objects and passes them to ``run_sweep``. The program
under test never sees the workload seed, only the replication seeds
derived from it here.

``BENCHMARK.json`` gives each workload's reason in one line and
``perfbench/METRICS.md`` at length.
"""

from __future__ import annotations

import random

#: Pool workers of every parallel sweep (one per core of a 2-core machine).
WORKERS = 2

#: Replications per cell of the mesh and grid workloads.
SEEDS_PER_CELL = 4
#: Replications per cell of the scenario mix (longer windows instead).
MIX_SEEDS_PER_CELL = 2

#: Table I window sizing, as in ``repro.experiments.configs``: base windows
#: scaled by the congestion factor ``min(1 / (1 - rho), cap)``.
GRID_BASE_WARMUP = 16.0
GRID_BASE_HORIZON = 120.0
GRID_CONGESTION_CAP = 8.0
#: Floor on the packets a grid replication generates in its window, so the
#: light cells (few packets per time unit) keep Little's law within the
#: checked tolerance on every seed: the n = 5, rho = 0.5 cell's worst gap
#: over 300 seeds is ~0.025 at this count, and ~0.053 at the plain
#: congestion-scaled window.
GRID_MIN_PACKETS = 16000.0


def _seed_stream(workload: str, seed: int):
    """``take(k)``: k distinct replication seeds, a pure function of
    ``(workload, seed)`` and of the order of the calls."""
    rng = random.Random(f"{workload}:{seed}")
    return lambda k: rng.sample(range(1, 2**31), k)


def _mesh_cold_numpy(take) -> list[dict]:
    base = {"scenario": "uniform", "rho": 0.8, "warmup": 100.0}
    numpy = [["backend", "numpy"]]
    return [
        {**base, "n": 32, "engine": "fifo", "horizon": 450.0,
         "engine_params": numpy, "seeds": take(SEEDS_PER_CELL)},
        {**base, "n": 64, "engine": "fifo", "horizon": 150.0,
         "engine_params": numpy, "seeds": take(SEEDS_PER_CELL)},
        {**base, "n": 32, "engine": "slotted", "horizon": 450.0,
         "engine_params": numpy, "seeds": take(SEEDS_PER_CELL)},
    ]


def _paper_grid_python(take) -> list[dict]:
    # Largest mesh first, so the first checkpoint times a real cell rather
    # than pool start-up jitter alone.
    cells = []
    for n in (15, 10, 5):
        for rho in (0.5, 0.8, 0.9):
            scale = min(1.0 / (1.0 - rho), GRID_CONGESTION_CAP)
            # Table I's convention: lam = 4 rho / n per node, so the
            # whole mesh generates n^2 lam = 4 rho n packets per unit time.
            packet_rate = 4.0 * rho * n
            cells.append({
                "scenario": "uniform", "n": n, "rho": rho,
                "convention": "table1", "engine": "fifo",
                "service": "deterministic",
                "warmup": GRID_BASE_WARMUP * scale,
                "horizon": max(GRID_BASE_HORIZON * scale,
                               GRID_MIN_PACKETS / packet_rate),
                "seeds": take(SEEDS_PER_CELL),
            })
    return cells


def _scenario_mix_stochastic(take) -> list[dict]:
    # Two seeds per cell, with windows long enough that every replication
    # of a Little's-law engine sees >= 11k packets (worst gap ~0.025 over
    # 40-60 seeds). The hot spot throttles the node rate, so its windows
    # are long; geometric traffic raises it, so the rushed cell is short.
    base = {"n": 16, "warmup": 50.0}
    exp = {"service": "exponential"}
    hot = {"scenario": "hotspot", "params": [["h", 0.3]]}
    return [
        {**base, **exp, **hot, "rho": 0.5, "engine": "fifo",
         "horizon": 3600.0, "seeds": take(MIX_SEEDS_PER_CELL)},
        {**base, **exp, **hot, "rho": 0.8, "engine": "fifo",
         "horizon": 2400.0, "seeds": take(MIX_SEEDS_PER_CELL)},
        {**base, **exp, "scenario": "torus", "rho": 0.8, "engine": "finite",
         "engine_params": [["buffer_size", 4]], "horizon": 150.0,
         "seeds": take(MIX_SEEDS_PER_CELL)},
        {**base, "scenario": "transpose", "rho": 0.8, "engine": "ps",
         "horizon": 1100.0, "seeds": take(MIX_SEEDS_PER_CELL)},
        {**base, "scenario": "geometric", "rho": 0.8, "engine": "rushed",
         "warmup": 30.0, "horizon": 40.0, "seeds": take(MIX_SEEDS_PER_CELL)},
    ]


_BUILDERS = {
    "mesh_cold_numpy": _mesh_cold_numpy,
    "paper_grid_python": _paper_grid_python,
    "scenario_mix_stochastic": _scenario_mix_stochastic,
}

NAMES = tuple(_BUILDERS)


def cells(workload: str, seed: int) -> list[dict]:
    """The workload's cells for ``seed`` (CellSpec keyword dicts)."""
    return _BUILDERS[workload](_seed_stream(workload, seed))
