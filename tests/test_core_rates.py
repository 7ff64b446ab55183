"""Tests for Theorem 6 rates, the generic traffic solver, and load math."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distances import mean_distance
from repro.core.rates import (
    array_edge_rate,
    array_edge_rates,
    edge_rates_from_routing,
    lambda_for_load,
    load_for_lambda,
    max_edge_rate,
    total_external_rate,
)
from repro.routing.butterfly_routing import ButterflyRouter
from repro.routing.destinations import (
    GeometricStopDestinations,
    PBiasedHypercubeDestinations,
    UniformDestinations,
)
from repro.routing.greedy import GreedyArrayRouter, GreedyKDRouter
from repro.routing.hypercube_greedy import GreedyHypercubeRouter
from repro.routing.randomized_greedy import RandomizedGreedyArrayRouter
from repro.scenarios import build_network
from repro.topology.array_mesh import ArrayMesh, KDArray
from repro.topology.butterfly import Butterfly
from repro.topology.hypercube import Hypercube


class TestTheorem6ClosedForms:
    def test_paper_table_formulas(self):
        """The four Theorem 6 entries, checked symbolically at (i, j)."""
        n, lam = 7, 0.3
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert array_edge_rate(n, lam, i, j, "left") == pytest.approx(
                    (lam / n) * (j - 1) * (n - j + 1)
                )
                assert array_edge_rate(n, lam, i, j, "right") == pytest.approx(
                    (lam / n) * j * (n - j)
                )
                assert array_edge_rate(n, lam, i, j, "up") == pytest.approx(
                    (lam / n) * (i - 1) * (n - i + 1)
                )
                assert array_edge_rate(n, lam, i, j, "down") == pytest.approx(
                    (lam / n) * i * (n - i)
                )

    def test_border_edges_have_zero_rate(self):
        # A left edge out of column 1 does not exist; rate formula gives 0.
        assert array_edge_rate(5, 1.0, 1, 1, "left") == 0.0
        assert array_edge_rate(5, 1.0, 1, 1, "up") == 0.0

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_closed_form_matches_generic_solver(self, n):
        """Theorem 6 == exact expectation over all (src, dst) pairs."""
        mesh = ArrayMesh(n)
        lam = 0.2
        closed = array_edge_rates(mesh, lam)
        generic = edge_rates_from_routing(
            GreedyArrayRouter(mesh), UniformDestinations(mesh.num_nodes), lam
        )
        assert np.allclose(closed, generic)

    def test_rectangular_rates_conserve_flow(self):
        """Sum of edge rates = mean distance * total arrival rate."""
        mesh = ArrayMesh(3, 5)
        lam = 0.1
        rates = array_edge_rates(mesh, lam)
        from repro.core.distances import mean_route_length

        router = GreedyArrayRouter(mesh)
        nbar = mean_route_length(router, UniformDestinations(mesh.num_nodes))
        assert rates.sum() == pytest.approx(nbar * lam * mesh.num_nodes)

    @given(st.integers(2, 10), st.floats(0.01, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_flow_conservation_identity(self, n, lam):
        """The paper's Section 5.1 identity: sum_e lam_e = n-bar lam n^2."""
        mesh = ArrayMesh(n)
        rates = array_edge_rates(mesh, lam)
        assert np.isclose(
            rates.sum(), mean_distance(n) * total_external_rate(n, lam)
        )


class TestLoadConversions:
    def test_even_max_rate(self):
        assert max_edge_rate(8, 0.5) == pytest.approx(1.0)

    def test_odd_max_rate(self):
        assert max_edge_rate(5, 1.0) == pytest.approx(24 / 20)

    def test_lambda_roundtrip_exact(self):
        for n in (4, 5, 9, 10):
            lam = lambda_for_load(n, 0.7, "exact")
            assert load_for_lambda(n, lam) == pytest.approx(0.7)

    def test_table1_convention_is_4rho_over_n(self):
        for n in (5, 10, 15, 20):
            assert lambda_for_load(n, 0.9, "table1") == pytest.approx(3.6 / n)

    def test_conventions_agree_for_even_n(self):
        assert lambda_for_load(6, 0.5, "exact") == lambda_for_load(
            6, 0.5, "table1"
        )

    def test_table1_under_loads_odd_n(self):
        lam = lambda_for_load(5, 0.9, "table1")
        assert load_for_lambda(5, lam) < 0.9

    def test_unknown_convention(self):
        with pytest.raises(ValueError, match="convention"):
            lambda_for_load(5, 0.5, "bogus")

    def test_rejects_rho_one(self):
        with pytest.raises(ValueError):
            lambda_for_load(5, 1.0)


class TestGenericSolverOtherTopologies:
    def test_hypercube_uniform_rate_lam_p(self):
        """Section 4.5: every directed edge carries lam * p."""
        d, lam, p = 4, 0.3, 0.3
        cube = Hypercube(d)
        rates = edge_rates_from_routing(
            GreedyHypercubeRouter(cube),
            PBiasedHypercubeDestinations(cube, p),
            lam,
        )
        assert np.allclose(rates, lam * p)

    def test_butterfly_uniform_rates(self):
        """Uniform input->output traffic loads every edge equally."""
        d, lam = 3, 0.4
        b = Butterfly(d)
        sources = [b.node_id(0, r) for r in range(b.rows)]
        outs = [b.node_id(d, r) for r in range(b.rows)]

        class UniformOutputs:
            num_nodes = b.num_nodes

            def pmf(self, src):
                v = np.zeros(b.num_nodes)
                v[outs] = 1.0 / len(outs)
                return v

            def sample(self, src, rng):
                return outs[int(rng.integers(len(outs)))]

        rates = edge_rates_from_routing(
            ButterflyRouter(b), UniformOutputs(), lam, source_nodes=sources
        )
        assert np.allclose(rates, lam / 2.0)

    def test_geometric_stop_rates_below_uniform_peak(self):
        """Distance-biased destinations unload the middle of the array."""
        mesh = ArrayMesh(6)
        router = GreedyArrayRouter(mesh)
        lam = 0.3
        uni = edge_rates_from_routing(
            router, UniformDestinations(mesh.num_nodes), lam
        )
        geo = edge_rates_from_routing(
            router, GeometricStopDestinations(mesh, 0.5), lam
        )
        assert geo.max() < uni.max()

    def test_per_node_rates_sequence(self):
        mesh = ArrayMesh(3)
        router = GreedyArrayRouter(mesh)
        only_node_0 = [1.0] + [0.0] * 8
        rates = edge_rates_from_routing(
            router,
            UniformDestinations(9),
            only_node_0,
            source_nodes=list(range(9)),
        )
        # Node 0 routes right then down: no left/up edge carries anything.
        for e in range(mesh.num_edges):
            if mesh.edge_direction(e) in ("left", "up"):
                assert rates[e] == 0.0

    def test_rate_sequence_length_mismatch(self):
        mesh = ArrayMesh(3)
        with pytest.raises(ValueError):
            edge_rates_from_routing(
                GreedyArrayRouter(mesh),
                UniformDestinations(9),
                [1.0, 2.0],
                source_nodes=[0, 1, 2],
            )

    def test_repeated_source_nodes_rejected(self):
        mesh = ArrayMesh(3)
        with pytest.raises(ValueError, match="repeats node 0"):
            edge_rates_from_routing(
                GreedyArrayRouter(mesh),
                UniformDestinations(9),
                [1.0, 2.0],
                source_nodes=[0, 0],
            )


def _per_pair_rates(router, destinations, node_rates, source_nodes=None):
    """The plain per-pair triple loop: ``path`` per (src, dst), one
    ``rates[e] += w`` per hop, sources in the given order."""
    n = router.topology.num_nodes
    sources = list(range(n)) if source_nodes is None else list(source_nodes)
    if np.isscalar(node_rates):
        rate_of = {s: float(node_rates) for s in sources}
    else:
        rate_of = {s: float(r) for s, r in zip(sources, node_rates)}
    rates = np.zeros(router.topology.num_edges)
    for src in sources:
        lam_src = rate_of[src]
        if lam_src == 0.0:
            continue
        pmf = destinations.pmf(src)
        for dst in range(n):
            w = lam_src * pmf[dst]
            if w == 0.0 or dst == src:
                continue
            for e in router.path(src, dst):
                rates[e] += w
    return rates


def _scenario(name, n, **params):
    net = build_network(name, n, **params)
    return net.router, net.destinations, net.source_nodes


#: Every scenario the generic solver calibrates, at two sizes (``single``
#: exists only at n = 2). The larger sizes span several source blocks.
SOLVER_SCENARIOS = [
    ("hotspot", 5, {}),
    ("hotspot", 14, {"h": 0.3, "hot_node": 17}),
    ("transpose", 4, {}),
    ("transpose", 11, {}),
    ("geometric", 6, {}),
    ("geometric", 13, {"stop": 0.3}),
    ("torus", 5, {}),
    ("torus", 12, {}),
    ("bitreversal", 3, {}),
    ("bitreversal", 7, {}),
    ("single", 2, {}),
]


class TestVectorizedSolverBitIdentity:
    """The blocked, vectorized solver reproduces the per-pair loop's
    float additions in order, so its rates match byte for byte."""

    @pytest.mark.parametrize(
        "name, n, params", SOLVER_SCENARIOS,
        ids=[f"{name}-{n}" for name, n, _ in SOLVER_SCENARIOS],
    )
    def test_scenarios(self, name, n, params):
        router, dests, sources = _scenario(name, n, **params)
        got = edge_rates_from_routing(router, dests, 0.37, source_nodes=sources)
        want = _per_pair_rates(router, dests, 0.37, sources)
        assert got.tobytes() == want.tobytes()

    def test_vector_rates_with_zeros_on_a_shuffled_subset(self):
        router, dests, _ = _scenario("hotspot", 9, h=0.4)
        rng = np.random.default_rng(3)
        sources = rng.permutation(81)[:50].tolist()
        lam = rng.random(50)
        lam[::4] = 0.0
        got = edge_rates_from_routing(router, dests, lam, source_nodes=sources)
        want = _per_pair_rates(router, dests, lam, sources)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "router, dests",
        [
            (RandomizedGreedyArrayRouter(ArrayMesh(6)),
             GeometricStopDestinations(ArrayMesh(6), 0.4)),
            (GreedyKDRouter(KDArray((3, 4, 3))), UniformDestinations(36)),
        ],
        ids=["randomized", "kd"],
    )
    def test_routers_without_route_batch(self, router, dests):
        assert not hasattr(router, "route_batch")
        got = edge_rates_from_routing(router, dests, 0.2)
        want = _per_pair_rates(router, dests, 0.2)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("pairs_per_block", [1, 50, 100])
    def test_partial_last_block(self, pairs_per_block, monkeypatch):
        """Blocks of 1, 2 and 4 sources over 25 sources: one source per
        block, or a short last block."""
        monkeypatch.setattr(
            "repro.core.rates.PAIRS_PER_BLOCK", pairs_per_block
        )
        router, dests, _ = _scenario("geometric", 5)
        lam = np.linspace(0.0, 1.0, 25)
        got = edge_rates_from_routing(router, dests, lam)
        want = _per_pair_rates(router, dests, lam)
        assert got.tobytes() == want.tobytes()
