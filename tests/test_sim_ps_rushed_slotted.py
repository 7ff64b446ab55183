"""Tests for the PS, rushed (Theorem 10), and slotted simulators."""

import numpy as np
import pytest

from repro.core.md1_approx import md1_network_number
from repro.core.rates import array_edge_rates, lambda_for_load
from repro.core.upper_bound import number_upper_bound
from repro.queueing.md1 import MD1Queue
from repro.queueing.mm1 import MM1Queue
from repro.routing.base import TabulatedRouter
from repro.routing.destinations import UniformDestinations
from repro.routing.greedy import GreedyArrayRouter
from repro.sim.fifo_network import NetworkSimulation
from repro.sim.ps_network import PSNetworkSimulation
from repro.sim.rushed_network import RushedNetworkSimulation
from repro.sim.slotted import SlottedNetworkSimulation
from repro.topology.array_mesh import ArrayMesh
from repro.topology.linear import LinearArray

from _helpers import (
    AlwaysNodeZero,
    BatchBoundaryRNG,
    BoundaryRNG,
    patch_heap_event_queue,
)


class AcrossOnly:
    num_nodes = 2

    def sample(self, src, rng):
        return 1 - src

    def pmf(self, src):
        v = np.zeros(2)
        v[1 - src] = 1.0
        return v


def two_node_router():
    line = LinearArray(2)
    return TabulatedRouter(
        line, {(0, 1): [0], (1, 0): [1], (0, 0): [], (1, 1): []}
    )


class TestPSSimulator:
    def test_single_queue_matches_mm1(self):
        """M/D/1-input PS queue has the M/M/1 equilibrium (insensitivity)."""
        lam = 0.6
        res = PSNetworkSimulation(
            two_node_router(), AcrossOnly(), lam, seed=11
        ).run(200, 8000)
        assert res.mean_delay == pytest.approx(MM1Queue(lam).mean_delay(), rel=0.08)

    @pytest.mark.slow
    def test_array_matches_product_form(self):
        n, rho = 3, 0.6
        lam = lambda_for_load(n, rho)
        mesh = ArrayMesh(n)
        res = PSNetworkSimulation(
            GreedyArrayRouter(mesh), UniformDestinations(9), lam, seed=12
        ).run(300, 5000)
        assert res.mean_number == pytest.approx(
            number_upper_bound(n, lam), rel=0.12
        )

    @pytest.mark.slow
    def test_dominates_fifo(self):
        """Theorem 5: E[N_FIFO] <= E[N_PS] on the same workload."""
        n, rho = 3, 0.7
        lam = lambda_for_load(n, rho)
        mesh = ArrayMesh(n)
        router = GreedyArrayRouter(mesh)
        dests = UniformDestinations(9)
        fifo = NetworkSimulation(router, dests, lam, seed=13).run(300, 4000)
        ps = PSNetworkSimulation(router, dests, lam, seed=14).run(300, 4000)
        assert fifo.mean_number <= ps.mean_number * 1.05

    def test_conservation_and_littles(self):
        mesh = ArrayMesh(3)
        res = PSNetworkSimulation(
            GreedyArrayRouter(mesh), UniformDestinations(9), 0.3, seed=15
        ).run(100, 2000)
        assert res.generated == res.completed
        assert res.littles_law_gap < 0.12

    def test_determinism(self):
        mesh = ArrayMesh(3)
        mk = lambda: PSNetworkSimulation(  # noqa: E731
            GreedyArrayRouter(mesh), UniformDestinations(9), 0.3, seed=9
        ).run(50, 500)
        a, b = mk(), mk()
        assert a.mean_delay == b.mean_delay

    def test_common_drain_keeps_works_sorted(self):
        """PS completes each edge's head customer. That rests on a float
        fact: subtracting one common ``dt * (phi / k)`` from every entry
        of a nondecreasing list keeps it nondecreasing (IEEE subtraction
        is monotone), so index 0 stays the first minimum. Arrivals append
        1.0, which no drained entry exceeds, and completions delete the
        head, exactly as the engine does."""
        rng = np.random.default_rng(20240516)
        phis = (1.0, 1.5, 0.3, 7.25, 1e-3, 1e3)
        dts = (5e-324, 1e-300, 1e-17, 1e-9, 0.37, 1.0, 1e6, 1e12)
        for _ in range(300):
            k = int(rng.integers(1, 65))
            # Draw from a few distinct values so equal entries are common.
            pool = rng.random(max(1, k // 4)).tolist() + [1.0]
            w = sorted(pool[int(i)] for i in rng.integers(len(pool), size=k))
            phi = phis[int(rng.integers(len(phis)))]
            for _ in range(40):
                action = rng.random()
                if action < 0.15 and len(w) < 64:
                    w.append(1.0)
                elif action < 0.3 and len(w) > 1:
                    del w[0]
                dt = dts[int(rng.integers(len(dts)))] * (0.5 + rng.random())
                x = dt * (phi / len(w))
                for i in range(len(w)):
                    w[i] -= x
                assert all(a <= b for a, b in zip(w, w[1:]))
                assert min(range(len(w)), key=w.__getitem__) == 0


class TestRushedSimulator:
    @pytest.mark.slow
    def test_total_copies_match_independent_md1_sum(self):
        """The pivot of Theorem 10: E[N1] = sum over edges of the M/D/1
        mean, despite the copies being correlated."""
        n, rho = 4, 0.7
        lam = lambda_for_load(n, rho)
        mesh = ArrayMesh(n)
        res = RushedNetworkSimulation(
            GreedyArrayRouter(mesh), UniformDestinations(16), lam, seed=21
        ).run(300, 6000)
        expected = md1_network_number(array_edge_rates(mesh, lam), variant="pk")
        assert res.mean_number == pytest.approx(expected, rel=0.06)

    @pytest.mark.slow
    def test_per_edge_occupancy_is_md1(self):
        """Marginally, each queue is an M/D/1 queue."""
        n, rho = 3, 0.6
        lam = lambda_for_load(n, rho)
        mesh = ArrayMesh(n)
        res = RushedNetworkSimulation(
            GreedyArrayRouter(mesh), UniformDestinations(9), lam, seed=22
        ).run(300, 8000)
        rates = array_edge_rates(mesh, lam)
        busiest = int(np.argmax(rates))
        expected = MD1Queue(rates[busiest]).mean_number()
        assert res.utilization[busiest] == pytest.approx(expected, rel=0.12)

    @pytest.mark.slow
    def test_makespan_below_fifo_delay(self):
        """The rushed system is faster: per-packet makespan (all copies
        served) is below the FIFO network delay on average."""
        n, rho = 4, 0.8
        lam = lambda_for_load(n, rho)
        mesh = ArrayMesh(n)
        router = GreedyArrayRouter(mesh)
        dests = UniformDestinations(16)
        rushed = RushedNetworkSimulation(router, dests, lam, seed=23).run(200, 3000)
        fifo = NetworkSimulation(router, dests, lam, seed=24).run(200, 3000)
        assert rushed.mean_delay < fifo.mean_delay

    def test_conservation(self):
        mesh = ArrayMesh(3)
        res = RushedNetworkSimulation(
            GreedyArrayRouter(mesh), UniformDestinations(9), 0.3, seed=25
        ).run(50, 800)
        assert res.generated == res.completed


class TestRushedCapabilities:
    """The capability-parity options (saturated-copy tracking and
    per-packet maxima) added when the registry flags flipped."""

    def _net(self, n=4):
        mesh = ArrayMesh(n)
        return mesh, GreedyArrayRouter(mesh), UniformDestinations(n * n)

    def test_options_do_not_change_base_statistics(self):
        """The new observers add no RNG draws and no float operations to
        the tracked quantities: base fields stay bit-identical."""
        mesh, router, dests = self._net()
        mask = np.arange(mesh.num_edges) % 3 == 0
        plain = RushedNetworkSimulation(router, dests, 0.25, seed=31).run(
            20, 300
        )
        tracked = RushedNetworkSimulation(
            router, dests, 0.25, seed=31, saturated_mask=mask
        ).run(20, 300, track_maxima=True)
        assert plain.mean_number == tracked.mean_number
        assert plain.mean_delay == tracked.mean_delay
        assert plain.delay_half_width == tracked.delay_half_width
        assert plain.utilization.tolist() == tracked.utilization.tolist()
        assert np.isnan(plain.mean_remaining_saturated)
        assert plain.max_queue_length == -1

    def test_event_queue_loop_pops_heap_order(self, monkeypatch):
        """Per-edge service runs the event-queue loop; a calendar queue
        mirroring its heap pops the same event at every step, and
        mirroring changes no statistic."""
        from repro.sim import rushed_network

        mesh, router, dests = self._net()
        rates = 1.0 + 0.5 * (np.arange(mesh.num_edges) % 4 == 0)

        def run():
            return RushedNetworkSimulation(
                router, dests, 0.25, seed=31, service_rates=rates
            ).run(20, 300, track_maxima=True)

        base = run()
        with monkeypatch.context() as m:
            built = patch_heap_event_queue(m, rushed_network)
            mirrored = run()
        assert built
        assert base.mean_number == mirrored.mean_number
        assert base.mean_delay == mirrored.mean_delay
        assert base.delay_half_width == mirrored.delay_half_width
        assert base.max_delay == mirrored.max_delay
        assert base.utilization.tolist() == mirrored.utilization.tolist()

    def test_saturated_copies_bounded_by_total(self):
        mesh, router, dests = self._net()
        mask = np.arange(mesh.num_edges) % 2 == 0
        res = RushedNetworkSimulation(
            router, dests, 0.25, seed=32, saturated_mask=mask
        ).run(20, 400)
        assert 0.0 < res.mean_remaining_saturated < res.mean_remaining
        # All-edges mask: every copy is a saturated copy.
        res_all = RushedNetworkSimulation(
            router, dests, 0.25, seed=32,
            saturated_mask=np.ones(mesh.num_edges, dtype=bool),
        ).run(20, 400)
        assert res_all.mean_remaining_saturated == res_all.mean_remaining

    def test_maxima_bound_the_averages(self):
        mesh, router, dests = self._net()
        res = RushedNetworkSimulation(router, dests, 0.3, seed=33).run(
            30, 500, track_maxima=True
        )
        assert res.max_delay >= res.mean_delay
        assert res.max_queue_length >= 0

    def test_mask_length_validated(self):
        mesh, router, dests = self._net()
        with pytest.raises(ValueError):
            RushedNetworkSimulation(
                router, dests, 0.2, saturated_mask=[True, False]
            )

    def test_registry_flags_flipped(self):
        from repro.sim.registry import get_engine

        info = get_engine("rushed")
        assert info.supports_saturated and info.supports_maxima

    def test_tracking_through_cellspec(self):
        from repro.sim.replication import CellSpec, ReplicationEngine

        spec = CellSpec(
            scenario="uniform", n=4, rho=0.6, engine="rushed",
            warmup=20, horizon=300, seeds=(3,),
            track_saturated=True, track_maxima=True,
        )
        res = ReplicationEngine(processes=1).run(spec).replications[0]
        assert res.mean_remaining_saturated > 0
        assert res.max_delay > 0 and res.max_queue_length >= 0


class TestEngineParityValidation:
    """PR-3 engine-gap closure: rushed and PS validate inputs and draw
    sources exactly like the fifo/slotted engines (util.validation)."""

    @pytest.fixture(params=[RushedNetworkSimulation, PSNetworkSimulation])
    def engine(self, request):
        return request.param

    def test_rejects_negative_node_rate_entries(self, engine):
        """Mirrors test_sim_fifo / the slotted validation cases: a negative
        entry must be rejected even when the total is positive."""
        mesh = ArrayMesh(3)
        router = GreedyArrayRouter(mesh)
        dests = UniformDestinations(9)
        with pytest.raises(ValueError):
            engine(router, dests, [-0.5, 1.0, 0.1] + [0.1] * 6)
        with pytest.raises(ValueError):
            engine(router, dests, [0.0] * 9)
        with pytest.raises(ValueError):
            engine(router, dests, [0.1, 0.2])  # wrong length
        with pytest.raises(ValueError):
            engine(router, dests, -0.2)  # negative scalar
        with pytest.raises(ValueError):
            engine(router, dests, 0.2, source_nodes=[])

    def test_rejects_bad_service_rates_and_windows(self, engine):
        mesh = ArrayMesh(3)
        router = GreedyArrayRouter(mesh)
        dests = UniformDestinations(9)
        with pytest.raises(ValueError):
            engine(router, dests, 0.2, service_rates=np.zeros(3))
        sim = engine(router, dests, 0.2)
        with pytest.raises(ValueError):
            sim.run(-1.0, 100)
        with pytest.raises(ValueError):
            sim.run(10, 0)

    def test_zero_rate_source_never_generates(self, engine, monkeypatch):
        """node_rate=[0.0, 1.0] regression for the side='left' source draw
        (the bug PR 1 fixed in the fifo/slotted engines): a draw landing
        exactly on the CDF boundary u = 0.0 must not pick the dead source."""
        real = np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng", lambda seed=None: BoundaryRNG(real(seed))
        )
        res = engine(
            two_node_router(), AlwaysNodeZero(), [0.0, 1.0], seed=37
        ).run(0, 400)
        # Every packet goes to node 0, so one born at the (zero-rate)
        # source 0 would be counted in zero_hop.
        assert res.generated > 0
        assert res.zero_hop == 0

    def test_uncached_run_matches_cached_run(self, engine):
        """A per-packet rebuild (SampledPathInterner) is output-neutral."""
        from repro.routing.pathcache import SampledPathInterner

        mesh = ArrayMesh(3)
        router = GreedyArrayRouter(mesh)
        dests = UniformDestinations(9)
        cached = engine(router, dests, 0.3, seed=41).run(20, 300)
        uncached = engine(
            router, dests, 0.3, seed=41, path_cache=SampledPathInterner(router)
        ).run(20, 300)
        assert cached.mean_number == uncached.mean_number
        assert cached.mean_delay == uncached.mean_delay
        assert cached.generated == uncached.generated

    def test_shared_warm_cache_is_output_neutral(self, engine):
        """The replication pattern: a warm shared arena changes nothing."""
        from repro.routing.pathcache import path_cache_for

        mesh = ArrayMesh(3)
        router = GreedyArrayRouter(mesh)
        dests = UniformDestinations(9)
        shared = path_cache_for(router)
        engine(router, dests, 0.3, seed=99, path_cache=shared).run(10, 200)
        warm = engine(router, dests, 0.3, seed=5, path_cache=shared).run(10, 200)
        cold = engine(router, dests, 0.3, seed=5).run(10, 200)
        assert warm.mean_number == cold.mean_number
        assert warm.mean_delay == cold.mean_delay

    def test_rejects_incompatible_path_cache(self, engine):
        from repro.routing.pathcache import path_cache_for

        small = GreedyArrayRouter(ArrayMesh(3))
        big = GreedyArrayRouter(ArrayMesh(4))
        with pytest.raises(ValueError):
            engine(big, UniformDestinations(16), 0.2, path_cache=path_cache_for(small))

    def test_rejects_cache_for_different_scheme_on_same_topology(self, engine):
        """An equal-sized topology is not enough: a cache built for the
        column-first order would silently simulate the wrong routing."""
        from repro.routing.pathcache import path_cache_for

        mesh = ArrayMesh(3)
        other = path_cache_for(GreedyArrayRouter(mesh, column_first=True))
        with pytest.raises(ValueError):
            engine(
                GreedyArrayRouter(mesh),
                UniformDestinations(9),
                0.2,
                path_cache=other,
            )


class TestSlottedSimulator:
    def test_single_queue_near_md1(self):
        """Slotted delay within ~tau of the continuous M/D/1 value."""
        lam = 0.5
        res = SlottedNetworkSimulation(
            two_node_router(), AcrossOnly(), lam, seed=31
        ).run(200, 10000)
        assert abs(res.mean_delay - MD1Queue(lam).mean_delay()) <= 1.0 + 0.1

    @pytest.mark.slow
    def test_array_within_tau_of_continuous(self):
        """Section 5.2: slotted T within tau of the event-driven T."""
        n, rho = 4, 0.6
        lam = lambda_for_load(n, rho)
        mesh = ArrayMesh(n)
        router = GreedyArrayRouter(mesh)
        dests = UniformDestinations(16)
        cont = NetworkSimulation(router, dests, lam, seed=32).run(200, 4000)
        slot = SlottedNetworkSimulation(router, dests, lam, seed=33).run(200, 4000)
        assert abs(slot.mean_delay - cont.mean_delay) <= 1.0 + 0.15 * cont.mean_delay

    def test_tau_scaling(self):
        """Halving tau halves the discretisation, in the same time units."""
        lam = 0.4
        res = SlottedNetworkSimulation(
            two_node_router(), AcrossOnly(), lam, tau=1.0, seed=34
        ).run(100, 5000)
        assert res.horizon == 5000.0

    def test_conservation_and_littles(self):
        mesh = ArrayMesh(3)
        res = SlottedNetworkSimulation(
            GreedyArrayRouter(mesh), UniformDestinations(9), 0.3, seed=35
        ).run(100, 2000)
        assert res.generated == res.completed
        assert res.littles_law_gap < 0.1

    def test_determinism(self):
        mesh = ArrayMesh(3)
        mk = lambda: SlottedNetworkSimulation(  # noqa: E731
            GreedyArrayRouter(mesh), UniformDestinations(9), 0.3, seed=36
        ).run(50, 500)
        assert mk().mean_delay == mk().mean_delay

    def test_invalid_windows(self):
        mesh = ArrayMesh(3)
        sim = SlottedNetworkSimulation(
            GreedyArrayRouter(mesh), UniformDestinations(9), 0.3
        )
        with pytest.raises(ValueError):
            sim.run(-1, 100)
        with pytest.raises(ValueError):
            sim.run(10, 0)

    def test_rejects_negative_node_rate_entries(self):
        """Aligned with the event engine via util.validation.check_node_rates:
        a negative entry must be rejected even when the total is positive."""
        mesh = ArrayMesh(3)
        router = GreedyArrayRouter(mesh)
        dests = UniformDestinations(9)
        with pytest.raises(ValueError):
            SlottedNetworkSimulation(router, dests, [-0.5, 1.0, 0.1] + [0.1] * 6)
        with pytest.raises(ValueError):
            SlottedNetworkSimulation(router, dests, [0.0] * 9)
        with pytest.raises(ValueError):
            SlottedNetworkSimulation(router, dests, [0.1, 0.2])  # wrong length

    def test_zero_rate_source_never_generates(self, monkeypatch):
        """node_rate=[0.0, 1.0] regression for the side='left' source draw.

        Forces the first slot's source batch to start exactly on the CDF
        boundary u = 0.0 (a measure-zero event left to chance), which a
        ``side='left'`` search resolves to the zero-rate source.
        """
        real = np.random.default_rng
        monkeypatch.setattr(
            np.random,
            "default_rng",
            lambda seed=None: BatchBoundaryRNG(real(seed)),
        )
        res = SlottedNetworkSimulation(
            two_node_router(), AlwaysNodeZero(), [0.0, 1.0], seed=37
        ).run(0, 400)
        # Every packet goes to node 0, so one born at the (zero-rate)
        # source 0 would be counted in zero_hop.
        assert res.generated > 0
        assert res.zero_hop == 0
