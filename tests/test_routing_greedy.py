"""Unit and property tests for greedy array routing, including the
closed-form scalar paths of every deterministic router (pinned against
hop-by-hop reference walks), the closed-form batch routes (mesh, torus
and hypercube) and static edge levels of the vectorized kernels (mesh
and hypercube)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import butterfly_walk, hypercube_walk, kd_walk, mesh_walk, torus_walk
from repro.routing.butterfly_routing import ButterflyRouter
from repro.routing.greedy import GreedyArrayRouter, GreedyKDRouter
from repro.routing.hypercube_greedy import GreedyHypercubeRouter
from repro.routing.torus_greedy import GreedyTorusRouter
from repro.topology.array_mesh import ArrayMesh, KDArray
from repro.topology.butterfly import Butterfly
from repro.topology.hypercube import Hypercube
from repro.topology.torus import Torus


class TestGreedyArrayRouter:
    def test_empty_path_for_same_node(self, router4):
        assert router4.path(5, 5) == ()

    def test_row_first_order(self):
        """The paper's scheme: all row edges precede all column edges."""
        mesh = ArrayMesh(5)
        router = GreedyArrayRouter(mesh)
        src, dst = mesh.node_id(0, 0), mesh.node_id(3, 4)
        path = router.path(src, dst)
        directions = [mesh.edge_direction(e) for e in path]
        # 4 horizontal then 3 vertical.
        assert directions == ["right"] * 4 + ["down"] * 3

    def test_column_first_order(self):
        mesh = ArrayMesh(5)
        router = GreedyArrayRouter(mesh, column_first=True)
        src, dst = mesh.node_id(0, 0), mesh.node_id(3, 4)
        directions = [mesh.edge_direction(e) for e in router.path(src, dst)]
        assert directions == ["down"] * 3 + ["right"] * 4

    def test_all_pairs_valid_and_shortest(self, mesh4, router4):
        for s in range(mesh4.num_nodes):
            for t in range(mesh4.num_nodes):
                path = router4.path(s, t)
                mesh4.validate_path(path, s, t)
                i1, j1 = mesh4.node_coords(s)
                i2, j2 = mesh4.node_coords(t)
                assert len(path) == abs(i1 - i2) + abs(j1 - j2)

    def test_leftward_and_upward_paths(self):
        mesh = ArrayMesh(4)
        router = GreedyArrayRouter(mesh)
        src, dst = mesh.node_id(3, 3), mesh.node_id(1, 0)
        directions = [mesh.edge_direction(e) for e in router.path(src, dst)]
        assert directions == ["left"] * 3 + ["up"] * 2

    def test_sample_path_is_deterministic(self, router4, rng):
        assert router4.sample_path(0, 15, rng) == router4.path(0, 15)

    def test_path_length_helper(self, router4):
        assert router4.path_length(0, 15) == 6

    @given(st.integers(0, 35), st.integers(0, 35))
    @settings(max_examples=80, deadline=None)
    def test_path_never_revisits_a_node(self, s, t):
        mesh = ArrayMesh(6)
        router = GreedyArrayRouter(mesh)
        path = router.path(s, t)
        visited = [s]
        at = s
        for e in path:
            at = mesh.edge_endpoints(e)[1]
            visited.append(at)
        assert len(set(visited)) == len(visited)


class TestGreedyKDRouter:
    def test_2d_column_major_matches_row_first_length(self):
        kd = KDArray((4, 4))
        router = GreedyKDRouter(kd)
        for s in range(16):
            for t in range(16):
                cs, ct = kd.node_coords(s), kd.node_coords(t)
                expected = sum(abs(a - b) for a, b in zip(cs, ct))
                path = router.path(s, t)
                kd.validate_path(path, s, t)
                assert len(path) == expected

    def test_3d_paths_valid(self):
        kd = KDArray((2, 3, 2))
        router = GreedyKDRouter(kd)
        for s in range(kd.num_nodes):
            for t in range(kd.num_nodes):
                kd.validate_path(router.path(s, t), s, t)

    def test_dimension_order_respected(self):
        kd = KDArray((3, 3))
        router = GreedyKDRouter(kd, dimension_order=(1, 0))
        # Correcting axis 1 first means stride-1 moves come first.
        path = router.path(kd.node_id((0, 0)), kd.node_id((2, 2)))
        first_two = [kd.edge_endpoints(e) for e in path[:2]]
        assert all(v - u == 1 for u, v in first_two)  # axis-1 steps

    def test_bad_dimension_order(self):
        with pytest.raises(ValueError):
            GreedyKDRouter(KDArray((3, 3)), dimension_order=(0, 0))

    def test_kd_mean_distance_matches_2d_formula(self):
        """Cross-check: mean path length on KDArray((n,n)) equals n-bar."""
        from repro.core.distances import mean_distance
        from repro.routing.destinations import UniformDestinations
        from repro.core.distances import mean_route_length

        kd = KDArray((4, 4))
        router = GreedyKDRouter(kd)
        got = mean_route_length(router, UniformDestinations(kd.num_nodes))
        assert np.isclose(got, mean_distance(4))


# ----------------------------------------------------------------------
# Closed-form batch routes and static edge levels.


def _assert_route_batch_matches_path(router, srcs, dsts):
    """``route_batch`` is the concatenated ``path`` output, edge for edge."""
    lens, edges = router.route_batch(
        np.asarray(srcs, dtype=np.int64), np.asarray(dsts, dtype=np.int64)
    )
    paths = [router.path(s, d) for s, d in zip(srcs, dsts)]
    assert edges.dtype == np.int32
    assert lens.tolist() == [len(p) for p in paths]
    assert edges.tolist() == [e for p in paths for e in p]


def _all_pairs(n):
    return [s for s in range(n) for _ in range(n)], list(range(n)) * n


LEVEL_ROUTERS = [
    GreedyArrayRouter(ArrayMesh(2)),
    GreedyArrayRouter(ArrayMesh(4)),
    GreedyArrayRouter(ArrayMesh(4), column_first=True),
    GreedyArrayRouter(ArrayMesh(3, 5)),
    GreedyArrayRouter(ArrayMesh(5, 2), column_first=True),
    GreedyHypercubeRouter(Hypercube(1)),
    GreedyHypercubeRouter(Hypercube(4)),
]


def _router_id(router):
    order = "-col" if getattr(router, "column_first", False) else ""
    return router.topology.name + order


class TestClosedFormRoutes:
    @given(
        rows=st.integers(2, 7),
        cols=st.integers(2, 7),
        column_first=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_mesh_route_batch_matches_path(self, rows, cols, column_first, data):
        router = GreedyArrayRouter(ArrayMesh(rows, cols), column_first=column_first)
        node = st.integers(0, rows * cols - 1)
        pairs = data.draw(st.lists(st.tuples(node, node), max_size=30))
        _assert_route_batch_matches_path(
            router, [s for s, _ in pairs], [d for _, d in pairs]
        )

    @given(d=st.integers(1, 7), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_hypercube_route_batch_matches_path(self, d, data):
        router = GreedyHypercubeRouter(Hypercube(d))
        node = st.integers(0, 2**d - 1)
        pairs = data.draw(st.lists(st.tuples(node, node), max_size=30))
        _assert_route_batch_matches_path(
            router, [s for s, _ in pairs], [t for _, t in pairs]
        )

    @given(
        rows=st.integers(3, 8),
        cols=st.integers(3, 8),
        column_first=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_torus_route_batch_matches_path(self, rows, cols, column_first, data):
        router = GreedyTorusRouter(Torus(rows, cols), column_first=column_first)
        node = st.integers(0, rows * cols - 1)
        pairs = data.draw(st.lists(st.tuples(node, node), max_size=30))
        _assert_route_batch_matches_path(
            router, [s for s, _ in pairs], [d for _, d in pairs]
        )

    @pytest.mark.parametrize(
        "rows, cols", [(4, 6), (5, 5), (3, 8)], ids=["even", "odd", "mixed"]
    )
    @pytest.mark.parametrize("column_first", [False, True], ids=["row", "col"])
    def test_torus_all_pairs(self, rows, cols, column_first):
        """Every pair, including the half-way ties of even rings, which
        resolve forward."""
        router = GreedyTorusRouter(Torus(rows, cols), column_first=column_first)
        _assert_route_batch_matches_path(router, *_all_pairs(rows * cols))

    @pytest.mark.parametrize("column_first", [False, True], ids=["row", "col"])
    def test_torus_empty_batch(self, column_first):
        router = GreedyTorusRouter(Torus(4, 5), column_first=column_first)
        _assert_route_batch_matches_path(router, [], [])

    @pytest.mark.parametrize(
        "rows, cols", [(5, 5), (3, 6), (6, 2)], ids=["square", "wide", "tall"]
    )
    @pytest.mark.parametrize("column_first", [False, True], ids=["row", "col"])
    def test_mesh_all_pairs(self, rows, cols, column_first):
        router = GreedyArrayRouter(ArrayMesh(rows, cols), column_first=column_first)
        _assert_route_batch_matches_path(router, *_all_pairs(rows * cols))

    @pytest.mark.parametrize("router", LEVEL_ROUTERS, ids=_router_id)
    def test_empty_batch(self, router):
        _assert_route_batch_matches_path(router, [], [])

    @pytest.mark.parametrize("router", LEVEL_ROUTERS, ids=_router_id)
    def test_edge_levels_increase_along_every_path(self, router):
        """Exhaustive: ``levels[e] < levels[f]`` for every consecutive
        pair ``e -> f`` on every path of the network."""
        levels = router.edge_levels()
        assert levels.shape == (router.topology.num_edges,)
        n = router.topology.num_nodes
        for s in range(n):
            for t in range(n):
                path = router.path(s, t)
                for e, f in zip(path, path[1:]):
                    assert levels[e] < levels[f], (s, t, e, f)

    def test_row_first_levels_match_the_documented_formula(self):
        mesh = ArrayMesh(3, 4)
        levels = GreedyArrayRouter(mesh).edge_levels()
        rows, cols = mesh.rows, mesh.cols
        for e in range(mesh.num_edges):
            direction, i, j = mesh.edge_info(e)
            expected = {
                "right": j,
                "left": cols - 2 - (j - 1),  # LEFT from column j lands on j - 1
                "down": cols - 1 + i,
                "up": cols - 1 + rows - 2 - (i - 1),  # UP lands on row i - 1
            }[direction]
            assert levels[e] == expected, (e, direction, i, j)


# ----------------------------------------------------------------------
# Closed-form scalar paths against the hop-by-hop reference walks.


def _assert_path_matches_walk(router, walk, pairs):
    for s, d in pairs:
        assert router.path(s, d) == walk(s, d), (s, d)


def _every_pair(n):
    return [(s, d) for s in range(n) for d in range(n)]


class TestClosedFormPathMatchesWalk:
    @pytest.mark.parametrize(
        "rows, cols", [(5, 5), (3, 6), (6, 2)], ids=["square", "wide", "tall"]
    )
    @pytest.mark.parametrize("column_first", [False, True], ids=["row", "col"])
    def test_mesh(self, rows, cols, column_first):
        mesh = ArrayMesh(rows, cols)
        router = GreedyArrayRouter(mesh, column_first=column_first)
        walk = lambda s, d: mesh_walk(mesh, s, d, column_first=column_first)  # noqa: E731
        _assert_path_matches_walk(router, walk, _every_pair(mesh.num_nodes))

    @pytest.mark.parametrize(
        "rows, cols", [(4, 6), (5, 5), (3, 8)], ids=["even", "odd", "mixed"]
    )
    @pytest.mark.parametrize("column_first", [False, True], ids=["row", "col"])
    def test_torus(self, rows, cols, column_first):
        torus = Torus(rows, cols)
        router = GreedyTorusRouter(torus, column_first=column_first)
        walk = lambda s, d: torus_walk(torus, s, d, column_first=column_first)  # noqa: E731
        _assert_path_matches_walk(router, walk, _every_pair(torus.num_nodes))

    def test_torus_half_way_tie_resolves_forward(self):
        torus = Torus(4, 6)
        router = GreedyTorusRouter(torus)
        # Three columns either way round a 6-ring, two rows round a 4-ring.
        path = router.path(torus.node_id(0, 1), torus.node_id(2, 4))
        assert [torus.edge_direction(e) for e in path] == ["right"] * 3 + ["down"] * 2

    @pytest.mark.parametrize(
        "dims, order",
        [
            ((3, 4, 2), None),
            ((3, 4, 2), (2, 0, 1)),
            ((2, 3, 2, 3), None),
            ((2, 3, 2, 3), (3, 1, 0, 2)),
        ],
        ids=["3d", "3d-permuted", "4d", "4d-permuted"],
    )
    def test_kd(self, dims, order):
        array = KDArray(dims)
        router = GreedyKDRouter(array, dimension_order=order)
        walk = lambda s, d: kd_walk(array, s, d, router.dimension_order)  # noqa: E731
        _assert_path_matches_walk(router, walk, _every_pair(array.num_nodes))

    @pytest.mark.parametrize("d", range(1, 7))
    def test_hypercube(self, d):
        cube = Hypercube(d)
        router = GreedyHypercubeRouter(cube)
        walk = lambda s, t: hypercube_walk(cube, s, t)  # noqa: E731
        _assert_path_matches_walk(router, walk, _every_pair(cube.num_nodes))

    @pytest.mark.parametrize("d", [1, 3])
    def test_butterfly(self, d):
        b = Butterfly(d)
        router = ButterflyRouter(b)
        pairs = [
            (b.node_id(0, r1), b.node_id(d, r2))
            for r1 in range(b.rows)
            for r2 in range(b.rows)
        ]
        walk = lambda s, t: butterfly_walk(b, s, t)  # noqa: E731
        _assert_path_matches_walk(router, walk, pairs)


@pytest.mark.parametrize(
    "router",
    [
        GreedyArrayRouter(ArrayMesh(3, 4)),
        GreedyTorusRouter(Torus(3, 4)),
        GreedyKDRouter(KDArray((2, 3, 2))),
        GreedyHypercubeRouter(Hypercube(3)),
        ButterflyRouter(Butterfly(2)),
    ],
    ids=lambda r: r.topology.name,
)
def test_path_rejects_out_of_range_nodes(router):
    n = router.topology.num_nodes
    for src, dst in [(n, 0), (0, n), (-1, 0), (0, -1), (n + 5, n)]:
        with pytest.raises(ValueError):
            router.path(src, dst)
