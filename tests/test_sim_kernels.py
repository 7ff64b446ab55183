"""Tests for the kernels layer: backend selection, the numpy backend's
two-backend contract (seed stability + distribution-level parity with the
python reference), its validation errors, the optional-dependency
boundary, closed-form routing against the path-cache fallback, and the
arena gather machinery the fallback rides on."""

import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.routing.base import BaseRouter, TabulatedRouter
from repro.routing.destinations import (
    HotSpotDestinations,
    PermutationDestinations,
    UniformDestinations,
)
from repro.routing.greedy import GreedyArrayRouter
from repro.routing.pathcache import PathArena, path_cache_for
from repro.routing.randomized_greedy import RandomizedGreedyArrayRouter
from repro.scenarios import build_network
from repro.routing.torus_greedy import GreedyTorusRouter
from repro.sim.fifo_network import NetworkSimulation
from repro.sim.finite_buffer import FiniteBufferNetworkSimulation
from repro.sim.kernels import (
    FIFO_KERNEL,
    KERNEL_BACKENDS,
    NUMPY_BACKEND,
    PYTHON_BACKEND,
    check_backend,
    get_kernel,
    numpy_available,
)
from repro.sim.ps_network import PSNetworkSimulation
from repro.sim.replication import CellSpec, replicate
from repro.sim.registry import get_engine
from repro.sim.slotted import SlottedNetworkSimulation
from repro.topology.array_mesh import ArrayMesh
from repro.topology.linear import LinearArray
from repro.topology.torus import Torus

from _helpers import AlwaysNodeZero

SRC = str(Path(__file__).resolve().parent.parent / "src")


# ----------------------------------------------------------------------
# Selection layer.


class TestBackendSelection:
    def test_backend_vocabulary(self):
        assert KERNEL_BACKENDS == (PYTHON_BACKEND, NUMPY_BACKEND)
        assert check_backend("python") == "python"
        assert check_backend("numpy") == "numpy"  # numpy is installed here

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="python/numpy"):
            check_backend("jax")

    def test_numpy_is_available_in_this_environment(self):
        assert numpy_available()

    def test_get_kernel_unknown_kernel(self):
        with pytest.raises(ValueError, match="no 'warp' kernel"):
            get_kernel("warp", PYTHON_BACKEND)

    def test_engines_reject_bad_backend(self):
        mesh = ArrayMesh(4)
        for cls in (NetworkSimulation, SlottedNetworkSimulation):
            with pytest.raises(ValueError, match="python/numpy"):
                cls(
                    GreedyArrayRouter(mesh),
                    UniformDestinations(16),
                    0.1,
                    backend="fortran",
                )


# ----------------------------------------------------------------------
# Numpy-backend validation errors.


class TestNumpyBackendRejections:
    def _fifo(self, **kw):
        mesh = ArrayMesh(4)
        return NetworkSimulation(
            GreedyArrayRouter(mesh),
            UniformDestinations(16),
            0.2,
            backend=NUMPY_BACKEND,
            **kw,
        )

    def _slotted(self):
        mesh = ArrayMesh(4)
        return SlottedNetworkSimulation(
            GreedyArrayRouter(mesh),
            UniformDestinations(16),
            0.2,
            backend=NUMPY_BACKEND,
        )

    @pytest.mark.parametrize(
        "opt",
        ["track_utilization", "track_number_distribution", "track_maxima"],
    )
    def test_fifo_rejects_unsupported_tracking(self, opt):
        with pytest.raises(ValueError, match="backend='python'"):
            self._fifo().run(0, 50, **{opt: True})

    def test_fifo_rejects_exponential_service(self):
        mesh = ArrayMesh(4)
        with pytest.raises(ValueError, match="uniform-deterministic"):
            NetworkSimulation(
                GreedyArrayRouter(mesh),
                UniformDestinations(16),
                0.2,
                service="exponential",
                backend=NUMPY_BACKEND,
            )

    def test_slotted_rejects_track_maxima(self):
        with pytest.raises(ValueError, match="backend='python'"):
            self._slotted().run(0, 50, track_maxima=True)

    def test_slotted_rejects_compat_rng(self):
        with pytest.raises(ValueError, match="batch_rng"):
            self._slotted().run(0, 50, batch_rng=False)

    def test_finite_rejects_numpy_with_caps(self):
        mesh = ArrayMesh(4)
        with pytest.raises(ValueError, match="finite buffers"):
            FiniteBufferNetworkSimulation(
                GreedyArrayRouter(mesh),
                UniformDestinations(16),
                0.2,
                buffer_size=4,
                backend=NUMPY_BACKEND,
            )

    def test_finite_without_caps_delegates_to_numpy_fifo(self):
        mesh = ArrayMesh(4)
        args = (GreedyArrayRouter(mesh), UniformDestinations(16), 0.2)
        fin = FiniteBufferNetworkSimulation(
            *args, buffer_size=None, backend=NUMPY_BACKEND, seed=5
        ).run(10, 200)
        fifo = NetworkSimulation(
            *args, backend=NUMPY_BACKEND, seed=5
        ).run(10, 200)
        assert fin.mean_delay == fifo.mean_delay
        assert fin.generated == fifo.generated


class TestCycleRejection:
    """The max-plus level sweep needs a feedforward edge-precedence
    graph; wrap-around and coin-dependent routes create cycles, which
    the kernel must reject with a pointer back to the reference."""

    def test_torus_routes_are_rejected(self):
        router = GreedyTorusRouter(Torus(4))
        sim = NetworkSimulation(
            router, UniformDestinations(16), 0.2, backend=NUMPY_BACKEND
        )
        with pytest.raises(ValueError, match="backend='python'"):
            sim.run(0, 100)

    def test_python_backend_still_runs_the_torus(self):
        router = GreedyTorusRouter(Torus(4))
        res = NetworkSimulation(router, UniformDestinations(16), 0.2).run(
            0, 100
        )
        assert res.generated > 0


# ----------------------------------------------------------------------
# The two-backend contract: seed stability and distribution parity.


def _mesh_sims(engine_cls, dests_factory, n, rate, seed, backend):
    mesh = ArrayMesh(n)
    return engine_cls(
        GreedyArrayRouter(mesh),
        dests_factory(n * n),
        rate,
        seed=seed,
        backend=backend,
    )


class TestSeedStability:
    @pytest.mark.parametrize("engine_cls", [NetworkSimulation, SlottedNetworkSimulation])
    def test_same_seed_same_result(self, engine_cls):
        horizon = (10, 300) if engine_cls is SlottedNetworkSimulation else (10.0, 300.0)
        a = _mesh_sims(engine_cls, UniformDestinations, 4, 0.2, 9, NUMPY_BACKEND).run(*horizon)
        b = _mesh_sims(engine_cls, UniformDestinations, 4, 0.2, 9, NUMPY_BACKEND).run(*horizon)
        assert a.mean_delay == b.mean_delay
        assert a.mean_number == b.mean_number
        assert a.generated == b.generated
        assert a.completed == b.completed


class TestDistributionParity:
    """Same law, same load: the two backends must estimate the same
    system (they are different samplings of one distribution). Same
    tolerance discipline as the slotted batch_rng parity tests."""

    @pytest.mark.parametrize(
        "dests_factory",
        [
            lambda n: UniformDestinations(n),
            lambda n: HotSpotDestinations(n, hot_node=7, h=0.3),
            lambda n: PermutationDestinations.transpose(ArrayMesh(6)),
        ],
        ids=["uniform", "hotspot", "transpose"],
    )
    @pytest.mark.parametrize(
        "engine_cls", [NetworkSimulation, SlottedNetworkSimulation],
        ids=["fifo", "slotted"],
    )
    def test_backends_estimate_the_same_system(self, engine_cls, dests_factory):
        slotted = engine_cls is SlottedNetworkSimulation
        window = (50, 1500) if slotted else (50.0, 1500.0)
        py = _mesh_sims(engine_cls, dests_factory, 6, 0.2, 1, PYTHON_BACKEND).run(*window)
        nu = _mesh_sims(engine_cls, dests_factory, 6, 0.2, 2, NUMPY_BACKEND).run(*window)
        tol = 0.35 + 3.0 * (py.delay_half_width + nu.delay_half_width)
        assert abs(py.mean_delay - nu.mean_delay) < tol
        assert nu.generated == pytest.approx(py.generated, rel=0.1)
        assert nu.completed > 0
        # The Little's-Law gap is a property of the workload (the hotspot
        # cell runs congested), not the backend: both must see the same one.
        assert nu.littles_law_gap == pytest.approx(py.littles_law_gap, abs=0.15)

    def test_uniform_4x4_is_workload_identical(self):
        """Under one draw block the batched streams coincide with the
        reference order for the uniform fast-id path, so the runs are
        not merely statistically close but equal."""
        py = _mesh_sims(
            NetworkSimulation, UniformDestinations, 4, 0.2, 3, PYTHON_BACKEND
        ).run(20.0, 400.0)
        nu = _mesh_sims(
            NetworkSimulation, UniformDestinations, 4, 0.2, 3, NUMPY_BACKEND
        ).run(20.0, 400.0)
        assert nu.generated == py.generated
        assert nu.mean_delay == pytest.approx(py.mean_delay, rel=1e-12)
        assert nu.mean_number == pytest.approx(py.mean_number, rel=1e-12)

    def test_slotted_uniform_4x4_shares_the_workload(self):
        """Per-slot Poisson blocks concatenate identically, so the two
        backends simulate the *same arrivals*; only equal-eligibility
        service ties may swap, which perturbs individual delays without
        moving the workload. Counts are exact, the mean is pinned far
        inside statistical tolerance."""
        py = _mesh_sims(
            SlottedNetworkSimulation, UniformDestinations, 4, 0.2, 3, PYTHON_BACKEND
        ).run(20, 400)
        nu = _mesh_sims(
            SlottedNetworkSimulation, UniformDestinations, 4, 0.2, 3, NUMPY_BACKEND
        ).run(20, 400)
        assert nu.generated == py.generated
        assert nu.zero_hop == py.zero_hop
        assert nu.mean_delay == pytest.approx(py.mean_delay, rel=0.01)
        assert nu.mean_number == pytest.approx(py.mean_number, rel=0.01)

    def test_collected_delays_match_summary(self):
        for engine_cls, window in [
            (NetworkSimulation, (10.0, 300.0)),
            (SlottedNetworkSimulation, (10, 300)),
        ]:
            res = _mesh_sims(
                engine_cls, UniformDestinations, 4, 0.2, 5, NUMPY_BACKEND
            ).run(*window, collect_delays=True)
            assert res.delays is not None
            assert len(res.delays) == res.completed
            assert float(np.sum(res.delays)) / len(res.delays) == pytest.approx(
                res.mean_delay, rel=1e-9
            )

    def test_saturated_tracking_parity(self):
        """mean_remaining_saturated is supported (unlike the maxima)
        and must estimate the same R_s as the reference."""
        mesh = ArrayMesh(6)
        mask = np.zeros(mesh.num_edges, dtype=bool)
        mask[: mesh.num_edges // 2] = True
        kw = dict(saturated_mask=mask)
        py = NetworkSimulation(
            GreedyArrayRouter(mesh), UniformDestinations(36), 0.2, seed=1, **kw
        ).run(50.0, 1500.0)
        nu = NetworkSimulation(
            GreedyArrayRouter(mesh),
            UniformDestinations(36),
            0.2,
            seed=2,
            backend=NUMPY_BACKEND,
            **kw,
        ).run(50.0, 1500.0)
        assert nu.mean_remaining_saturated == pytest.approx(
            py.mean_remaining_saturated, abs=0.3 + 0.2 * py.mean_remaining_saturated
        )


class TestRandomizedRouterParity:
    def test_randomized_greedy_runs_on_numpy(self):
        """Coin draws ride the sampled-path cache; the level sweep must
        either solve the realised routes or reject them — never return
        silently wrong numbers. On the 4x4 mesh the realised visit
        orders stay feedforward-consistent often enough to solve."""
        mesh = ArrayMesh(4)
        router = RandomizedGreedyArrayRouter(mesh)
        try:
            res = NetworkSimulation(
                router, UniformDestinations(16), 0.2, seed=3,
                backend=NUMPY_BACKEND,
            ).run(10.0, 300.0)
        except ValueError as err:
            assert "backend='python'" in str(err)
            return
        assert res.completed > 0
        assert res.littles_law_gap < 0.25


# ----------------------------------------------------------------------
# Batched boundary draws (the side='right' contract, batch edition).


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


def _two_node_router():
    line = LinearArray(2)
    return TabulatedRouter(
        line, {(0, 1): [0], (1, 0): [1], (0, 0): [], (1, 1): []}
    )


class TestBatchedSourceDrawBoundary:
    """node_rate=[0.0, 1.0]: a boundary draw in the blocked source batch
    must never pick the dead source (regression for the batched
    analogue of the side='left' bug)."""

    @pytest.mark.parametrize(
        "engine_cls, window",
        [(NetworkSimulation, (0.0, 300.0)), (SlottedNetworkSimulation, (0, 300))],
        ids=["fifo", "slotted"],
    )
    def test_zero_rate_source_never_generates(self, engine_cls, window, monkeypatch):
        real = np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng", lambda seed=None: BatchBoundaryRNG(real(seed))
        )
        sim = engine_cls(
            _two_node_router(),
            AlwaysNodeZero(),
            [0.0, 1.0],
            seed=11,
            backend=NUMPY_BACKEND,
        )
        res = sim.run(*window)
        # Packets from source 0 would be zero-hop (dst == 0); with the
        # boundary draw handled, every packet originates at source 1.
        assert res.generated > 0
        assert res.zero_hop == 0


# ----------------------------------------------------------------------
# Closed-form routes vs the path-cache fallback, and the arena gather.


class CacheOnlyRouter(BaseRouter):
    """Another router's paths with no ``route_batch``/``edge_levels``: the
    numpy kernels must route it through the generic path-cache fallback
    (batch lookup, arena gather, per-run level fixpoint)."""

    def __init__(self, inner):
        super().__init__(inner.topology)
        self._inner = inner

    def path(self, src, dst):
        return self._inner.path(src, dst)


def _closed_form_network(case):
    if case == "bitreversal":
        net = build_network("bitreversal", 4)
        return net.router, net.destinations
    mesh = ArrayMesh(5) if case == "mesh-row" else ArrayMesh(4, 6)
    router = GreedyArrayRouter(mesh, column_first=case == "mesh-col-rect")
    return router, UniformDestinations(mesh.num_nodes)


class TestClosedFormRouting:
    @pytest.mark.parametrize("case", ["mesh-row", "mesh-col-rect", "bitreversal"])
    @pytest.mark.parametrize("engine", ["fifo", "slotted"])
    def test_closed_form_matches_cache_fallback(self, engine, case):
        """Closed-form routes with static levels and the cache fallback
        with per-run levels give bit-identical results: every field of
        the SimResult, the collected delays included."""
        router, dests = _closed_form_network(case)
        mask = np.zeros(router.topology.num_edges, dtype=bool)
        mask[::3] = True

        def run(r):
            cls = NetworkSimulation if engine == "fifo" else SlottedNetworkSimulation
            sim = cls(
                r, dests, 0.15, seed=7, saturated_mask=mask,
                backend=NUMPY_BACKEND,
            )
            window = (20.0, 300.0) if engine == "fifo" else (20, 300)
            return sim, sim.run(*window, collect_delays=True)

        closed_sim, closed = run(router)
        cached_sim, cached = run(CacheOnlyRouter(router))
        assert closed.completed > 0
        # Only the fallback routed through its path cache.
        assert len(closed_sim.path_cache) == 0
        assert len(cached_sim.path_cache) > 0
        np.testing.assert_equal(
            dataclasses.asdict(closed), dataclasses.asdict(cached)
        )


class TestKernelLevelCache:
    """Fallback routers (no closed form) share a growing path cache."""

    def test_cache_growth_matches_fresh_cache(self):
        """A shared cache that grew (new pairs appended to its arena by
        an earlier run) must produce the same trajectory as a fresh
        cache: levels come from this run's routes, never a stale one."""
        mesh = ArrayMesh(5)
        router = CacheOnlyRouter(GreedyArrayRouter(mesh))
        shared = path_cache_for(router)
        # Warm with a narrow workload, then run a wide one on the grown cache.
        NetworkSimulation(
            router,
            HotSpotDestinations(25, hot_node=3, h=0.9),
            0.1,
            seed=1,
            path_cache=shared,
            backend=NUMPY_BACKEND,
        ).run(0.0, 100.0)
        grown = NetworkSimulation(
            router, UniformDestinations(25), 0.2, seed=4,
            path_cache=shared, backend=NUMPY_BACKEND,
        ).run(10.0, 300.0)
        fresh = NetworkSimulation(
            router, UniformDestinations(25), 0.2, seed=4,
            path_cache=path_cache_for(router), backend=NUMPY_BACKEND,
        ).run(10.0, 300.0)
        assert grown.mean_delay == fresh.mean_delay
        assert grown.mean_number == fresh.mean_number
        assert grown.generated == fresh.generated


class TestPathArenaGather:
    def _arena_with(self, paths):
        arena = PathArena()
        offlens = [(arena.add(p), len(p)) for p in paths]
        return arena, offlens

    def test_fast_path_matches_concatenation(self):
        arena, offlens = self._arena_with([[3, 1, 4], [1, 5], [9, 2, 6, 5]])
        offs = np.array([o for o, _ in offlens], dtype=np.int64)
        lens = np.array([ln for _, ln in offlens], dtype=np.int64)
        got = arena.gather(offs, lens)
        assert got.tolist() == [3, 1, 4, 1, 5, 9, 2, 6, 5]

    def test_zero_length_paths_use_fallback(self):
        arena, offlens = self._arena_with([[3, 1, 4], [1, 5]])
        offs = np.array([offlens[0][0], offlens[1][0], offlens[0][0]])
        lens = np.array([3, 0, 2])
        got = arena.gather(offs, lens)
        assert got.tolist() == [3, 1, 4, 3, 1]

    def test_repeated_and_out_of_order_views(self):
        arena, offlens = self._arena_with([[7, 8], [2, 4, 6]])
        offs = np.array([offlens[1][0], offlens[0][0], offlens[1][0]])
        lens = np.array([3, 2, 3])
        got = arena.gather(offs, lens)
        assert got.tolist() == [2, 4, 6, 7, 8, 2, 4, 6]


# ----------------------------------------------------------------------
# Optional-dependency boundary (subprocess isolation).


class TestOptionalDependencyBoundary:
    def _run(self, code):
        return subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_python_backend_never_imports_numpy_backend(self):
        """backend='python' runs must not touch the vectorized module;
        a meta-path blocker turns any import attempt into a hard fail."""
        code = f"""
import sys
sys.path.insert(0, {SRC!r})

class Blocker:
    def find_spec(self, name, path=None, target=None):
        if name == "repro.sim.kernels.numpy_backend":
            raise ImportError("numpy_backend imported during a python-backend run")
        return None

sys.meta_path.insert(0, Blocker())

from repro.routing.greedy import GreedyArrayRouter
from repro.routing.destinations import UniformDestinations
from repro.sim.fifo_network import NetworkSimulation
from repro.sim.slotted import SlottedNetworkSimulation
from repro.sim.finite_buffer import FiniteBufferNetworkSimulation
from repro.topology.array_mesh import ArrayMesh

mesh = ArrayMesh(4)
args = (GreedyArrayRouter(mesh), UniformDestinations(16), 0.2)
assert NetworkSimulation(*args, seed=1).run(0, 100).generated > 0
assert SlottedNetworkSimulation(*args, seed=1).run(0, 100).generated > 0
assert FiniteBufferNetworkSimulation(*args, buffer_size=2, seed=1).run(0, 100).generated > 0
assert "repro.sim.kernels.numpy_backend" not in sys.modules
print("BOUNDARY-OK")
"""
        proc = self._run(code)
        assert proc.returncode == 0, proc.stderr
        assert "BOUNDARY-OK" in proc.stdout

    def test_kernels_package_works_without_numpy(self):
        """With numpy unfindable, the selection layer still imports
        (loaded standalone — the engines themselves require numpy, the
        *selection module* is the numpy-free boundary), reports
        unavailability, and raises the actionable error."""
        kernels_init = str(
            Path(SRC) / "repro" / "sim" / "kernels" / "__init__.py"
        )
        code = f"""
import importlib.util
import sys
sys.path = [p for p in sys.path if "site-packages" not in p and "dist-packages" not in p]
spec = importlib.util.spec_from_file_location("kernels_standalone", {kernels_init!r})
kernels = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernels)
assert not kernels.numpy_available()
assert kernels.check_backend("python") == "python"
try:
    kernels.check_backend("numpy")
except ValueError as err:
    assert "fast" in str(err) and "backend='python'" in str(err), err
else:
    raise AssertionError("check_backend('numpy') should have raised")
print("NO-NUMPY-OK")
"""
        proc = self._run(code)
        assert proc.returncode == 0, proc.stderr
        assert "NO-NUMPY-OK" in proc.stdout


# ----------------------------------------------------------------------
# Registry and facade integration.


class TestRegistryBackendParam:
    def test_kernel_engines_advertise_both_backends(self):
        for name in ("fifo", "slotted", "finite"):
            assert get_engine(name).backends == KERNEL_BACKENDS
        for name in ("rushed", "ps"):
            assert get_engine(name).backends == (PYTHON_BACKEND,)

    def test_backend_param_listed(self):
        for name in ("fifo", "slotted", "finite"):
            param = get_engine(name).param("backend")
            assert param.choices == KERNEL_BACKENDS
            assert param.default == PYTHON_BACKEND

    def test_spec_rejects_numpy_with_track_maxima(self):
        with pytest.raises(ValueError, match="track_maxima"):
            CellSpec(
                scenario="uniform",
                n=4,
                node_rate=0.3,
                track_maxima=True,
                engine_params=(("backend", "numpy"),),
            )

    def test_spec_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="python/numpy"):
            CellSpec(
                scenario="uniform",
                n=4,
                node_rate=0.3,
                engine_params=(("backend", "mlx"),),
            )

    @pytest.mark.parametrize("engine", ["fifo", "slotted", "finite"])
    def test_numpy_replication_runs(self, engine):
        spec = CellSpec(
            scenario="uniform",
            n=4,
            node_rate=0.3,
            engine=engine,
            warmup=10,
            horizon=150,
            seeds=(0, 1),
            engine_params=(("backend", "numpy"),),
        )
        pooled = replicate(spec, processes=1)
        assert all(r.completed > 0 for r in pooled.replications)

    def test_slotted_cell_splits_constructor_and_run_params(self):
        spec = CellSpec(
            scenario="uniform",
            n=4,
            node_rate=0.3,
            engine="slotted",
            warmup=10,
            horizon=150,
            seeds=(0,),
            engine_params=(("backend", "python"), ("batch_rng", False)),
        )
        pooled = replicate(spec, processes=1)
        assert pooled.replications[0].completed > 0


class TestPSEventQueue:
    def _spec(self, **ep):
        return CellSpec(
            scenario="uniform",
            n=4,
            node_rate=0.3,
            engine="ps",
            warmup=10,
            horizon=200,
            seeds=(0,),
            engine_params=tuple(sorted(ep.items())),
        )

    def test_all_queue_kinds_are_bit_identical(self):
        results = [
            replicate(self._spec(event_queue=kind), processes=1)
            for kind in ("calendar", "calendar-fixed", "heap")
        ]
        base = results[0].replications[0]
        for pooled in results[1:]:
            rep = pooled.replications[0]
            assert rep.mean_delay == base.mean_delay
            assert rep.mean_number == base.mean_number
            assert rep.generated == base.generated

    def test_constructor_validates_kind(self):
        mesh = ArrayMesh(4)
        with pytest.raises(ValueError, match="event_queue"):
            PSNetworkSimulation(
                GreedyArrayRouter(mesh),
                UniformDestinations(16),
                0.2,
                event_queue="fibonacci",
            )
