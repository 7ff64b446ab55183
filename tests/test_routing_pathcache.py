"""Tests for the shared path-cache arena (repro.routing.pathcache)."""

import numpy as np
import pytest

from repro.routing.base import TabulatedRouter
from repro.routing.butterfly_routing import ButterflyRouter
from repro.routing.greedy import GreedyArrayRouter, GreedyKDRouter
from repro.routing.hypercube_greedy import GreedyHypercubeRouter
from repro.routing.pathcache import (
    DENSE_NODE_LIMIT,
    PathArena,
    PathCache,
    RandomizedGreedyPathCache,
    SampledPathInterner,
    path_cache_for,
)
from repro.routing.randomized_greedy import RandomizedGreedyArrayRouter
from repro.routing.torus_greedy import GreedyTorusRouter
from repro.topology.array_mesh import ArrayMesh, KDArray
from repro.topology.butterfly import Butterfly
from repro.topology.hypercube import Hypercube
from repro.topology.linear import LinearArray
from repro.topology.torus import Torus


class TestPathArena:
    def test_offsets_and_views(self):
        arena = PathArena()
        o1 = arena.add([3, 1, 4])
        o2 = arena.add((1, 5))
        assert (o1, o2) == (0, 3)
        assert arena.view(o1, 3) == (3, 1, 4)
        assert arena.view(o2, 2) == (1, 5)
        assert len(arena) == 5

    def test_as_array_tracks_growth(self):
        arena = PathArena()
        arena.add([7, 8])
        a = arena.as_array()
        assert a.dtype == np.int32 and a.tolist() == [7, 8]
        arena.add([9])
        assert arena.as_array().tolist() == [7, 8, 9]

    def test_edges_list_identity_is_stable(self):
        """Engines bind arena.edges once; growth must happen in place."""
        arena = PathArena()
        ref = arena.edges
        arena.add(list(range(100)))
        assert ref is arena.edges and len(ref) == 100


@pytest.mark.parametrize(
    "router_factory",
    [
        lambda: GreedyArrayRouter(ArrayMesh(4)),
        lambda: GreedyArrayRouter(ArrayMesh(3, 5), column_first=True),
        lambda: GreedyTorusRouter(Torus(4)),
        lambda: GreedyTorusRouter(Torus(5), column_first=True),
        lambda: GreedyTorusRouter(Torus(3, 6)),
        lambda: GreedyHypercubeRouter(Hypercube(3)),
        lambda: GreedyHypercubeRouter(Hypercube(4)),
        lambda: GreedyKDRouter(KDArray((3, 4, 2))),
        lambda: GreedyKDRouter(KDArray((3, 4, 2)), dimension_order=(2, 0, 1)),
        lambda: RandomizedGreedyArrayRouter(ArrayMesh(3, 5), 0.3),
    ],
)
def test_cache_matches_router_on_all_pairs(router_factory):
    router = router_factory()
    cache = path_cache_for(router)
    pairs = [(cache, router)]
    if isinstance(router, RandomizedGreedyArrayRouter):
        # Both order tables, each against the greedy router it builds from.
        pairs = [
            (cache.row_first, router._row_first),
            (cache.col_first, router._col_first),
        ]
    n = router.topology.num_nodes
    for table, source in pairs:
        for s in range(n):
            for d in range(n):
                assert table.path(s, d) == source.path(s, d), (s, d)


def test_butterfly_cache_matches_router_on_all_valid_pairs():
    """Butterfly parity over every (input, output) pair — the only pairs
    the unique-path scheme routes."""
    b = Butterfly(3)
    router = ButterflyRouter(b)
    cache = path_cache_for(router)
    for rs in range(b.rows):
        for rd in range(b.rows):
            src, dst = b.node_id(0, rs), b.node_id(b.d, rd)
            assert cache.path(src, dst) == router.path(src, dst), (rs, rd)


def _spread_pairs(n):
    pairs = [(s, (s * 7 + 3) % n) for s in range(n)]
    return pairs + [(d, s) for s, d in pairs]


@pytest.mark.parametrize(
    "router, pairs",
    [
        (GreedyArrayRouter(ArrayMesh(12, 14)), _spread_pairs(168)),
        (GreedyTorusRouter(Torus(11)), _spread_pairs(121)),
        (GreedyKDRouter(KDArray((5, 4, 6))), _spread_pairs(120)),
        (GreedyHypercubeRouter(Hypercube(7)), _spread_pairs(128)),
        (ButterflyRouter(Butterfly(5)),
         [(r1, 5 * 32 + r2) for r1 in range(32) for r2 in range(32)]),
    ],
    ids=["mesh", "torus", "kd", "hypercube", "butterfly"],
)
def test_arena_entries_share_one_int_per_edge(router, pairs):
    """Every arena entry naming an edge is the same int object, so a big
    arena costs one pointer per entry, not a fresh int (ids here run past
    the interpreter's small-int cache)."""
    cache = path_cache_for(router)
    for s, d in pairs:
        cache.offlen(s, d)
    edges = cache.arena.edges
    assert max(edges) > 256 and len(edges) > len(set(edges))
    assert len({id(e) for e in edges}) == len(set(edges))


class TestPathCache:
    def test_lazy_memoization(self):
        router = GreedyArrayRouter(ArrayMesh(3))
        cache = PathCache(router)
        assert len(cache) == 0
        off, ln = cache.offlen(0, 8)
        assert ln == len(router.path(0, 8))
        assert len(cache) == 1
        # Second lookup returns the identical view without rebuilding.
        assert cache.offlen(0, 8) == (off, ln)
        assert len(cache) == 1

    def test_precompute_all(self):
        router = GreedyArrayRouter(ArrayMesh(3))
        cache = PathCache(router)
        cache.precompute_all()
        assert len(cache) == 81
        assert cache.path(2, 7) == router.path(2, 7)

    def test_shared_arena(self):
        mesh = ArrayMesh(3)
        arena = PathArena()
        a = PathCache(GreedyArrayRouter(mesh), arena=arena)
        b = PathCache(GreedyArrayRouter(mesh, column_first=True), arena=arena)
        a.offlen(0, 8)
        b.offlen(0, 8)
        assert a.arena is b.arena is arena
        assert len(arena) == 8  # two 4-hop paths, one arena

    def test_offlen_batch_dense_gather(self):
        router = GreedyArrayRouter(ArrayMesh(4))
        cache = PathCache(router)
        assert cache.num_nodes <= DENSE_NODE_LIMIT
        rng = np.random.default_rng(0)
        srcs = rng.integers(0, 16, size=50)
        dsts = rng.integers(0, 16, size=50)
        offs, lens = cache.offlen_batch(srcs, dsts)
        for s, d, off, ln in zip(srcs, dsts, offs, lens):
            assert cache.arena.view(int(off), int(ln)) == router.path(int(s), int(d))

    def test_offlen_batch_duplicate_misses_intern_once(self):
        """A batch repeating a missing pair must append the path to the
        shared append-only arena exactly once, not once per occurrence."""
        router = GreedyArrayRouter(ArrayMesh(4))
        cache = PathCache(router)
        srcs = np.array([0, 0, 0, 0])
        dsts = np.array([15, 15, 15, 15])
        offs, lens = cache.offlen_batch(srcs, dsts)
        assert len(cache.arena) == len(router.path(0, 15))
        assert set(offs.tolist()) == {0}
        assert len(cache) == 1

    def test_offlen_batch_without_dense_tables(self):
        router = GreedyArrayRouter(ArrayMesh(4))
        cache = PathCache(router)
        cache._dense_off = cache._dense_len = None  # simulate a big network
        srcs = np.array([0, 3, 7])
        dsts = np.array([15, 3, 1])
        offs, lens = cache.offlen_batch(srcs, dsts)
        for s, d, off, ln in zip(srcs, dsts, offs, lens):
            assert cache.arena.view(int(off), int(ln)) == router.path(int(s), int(d))

    def test_consumes_no_rng(self):
        cache = PathCache(GreedyArrayRouter(ArrayMesh(3)))
        assert cache.consumes_rng is False

    def test_butterfly_lazy_cache_only_touches_valid_pairs(self):
        b = Butterfly(2)
        router = ButterflyRouter(b)
        cache = path_cache_for(router)
        src, dst = b.node_id(0, 0), b.node_id(2, 3)
        assert cache.path(src, dst) == router.path(src, dst)
        with pytest.raises(ValueError):
            cache.path(dst, src)  # invalid pairs still raise via the router


class TestRandomizedGreedyPathCache:
    def test_both_tables_match_the_two_orders(self):
        mesh = ArrayMesh(4)
        router = RandomizedGreedyArrayRouter(mesh)
        cache = RandomizedGreedyPathCache(router)
        rf = GreedyArrayRouter(mesh, column_first=False)
        cf = GreedyArrayRouter(mesh, column_first=True)
        for s in range(16):
            for d in range(16):
                assert cache.row_first.path(s, d) == rf.path(s, d)
                assert cache.col_first.path(s, d) == cf.path(s, d)

    def test_coin_draw_matches_uncached_router(self):
        """sample_offlen consumes exactly the rng.random() the uncached
        scheme consumes, and picks the same order."""
        mesh = ArrayMesh(4)
        router = RandomizedGreedyArrayRouter(mesh, row_first_probability=0.3)
        cache = RandomizedGreedyPathCache(router)
        a = np.random.default_rng(42)
        b = np.random.default_rng(42)
        for s, d in [(0, 15), (3, 12), (5, 5), (1, 2)] * 10:
            off, ln = cache.sample_offlen(s, d, a)
            assert cache.arena.view(off, ln) == router.sample_path(s, d, b)
        # Streams advanced identically.
        assert a.random() == b.random()

    def test_batch_coins_match_scalar_coins(self):
        mesh = ArrayMesh(4)
        router = RandomizedGreedyArrayRouter(mesh, row_first_probability=0.5)
        cache = RandomizedGreedyPathCache(router)
        rng = np.random.default_rng(7)
        srcs = rng.integers(0, 16, size=200)
        dsts = rng.integers(0, 16, size=200)
        a = np.random.default_rng(3)
        b = np.random.default_rng(3)
        offs, lens = cache.sample_offlen_batch(srcs, dsts, a)
        for i, (s, d) in enumerate(zip(srcs.tolist(), dsts.tolist())):
            want = cache.sample_offlen(s, d, b)
            assert (int(offs[i]), int(lens[i])) == want

    def test_shared_arena_across_tables(self):
        cache = RandomizedGreedyPathCache(RandomizedGreedyArrayRouter(ArrayMesh(3)))
        assert cache.row_first.arena is cache.arena
        assert cache.col_first.arena is cache.arena


class TestSampledPathInterner:
    def test_rebuilds_but_interns(self):
        router = GreedyArrayRouter(ArrayMesh(3))
        interner = SampledPathInterner(router)
        rng = np.random.default_rng(0)
        ol1 = interner.sample_offlen(0, 8, rng)
        ol2 = interner.sample_offlen(0, 8, rng)
        assert ol1 == ol2  # same arena slot, no duplicate storage
        assert interner.arena.view(*ol1) == router.path(0, 8)

    def test_preserves_randomized_stream(self):
        mesh = ArrayMesh(3)
        router = RandomizedGreedyArrayRouter(mesh)
        interner = SampledPathInterner(router)
        a = np.random.default_rng(1)
        b = np.random.default_rng(1)
        for _ in range(20):
            ol = interner.sample_offlen(0, 8, a)
            assert interner.arena.view(*ol) == router.sample_path(0, 8, b)
        assert a.random() == b.random()


class TestPathCacheFor:
    def test_dispatch(self):
        mesh = ArrayMesh(3)
        assert isinstance(path_cache_for(GreedyArrayRouter(mesh)), PathCache)
        assert isinstance(
            path_cache_for(RandomizedGreedyArrayRouter(mesh)),
            RandomizedGreedyPathCache,
        )

        class WeirdRouter:
            """Structurally a Router but unknown to the cache layer."""

            def __init__(self, topology):
                self.topology = topology

            def path(self, src, dst):
                return (0,) if src != dst else ()

            def sample_path(self, src, dst, rng):
                return self.path(src, dst)

        assert isinstance(
            path_cache_for(WeirdRouter(LinearArray(2))), SampledPathInterner
        )

    def test_tabulated_router_is_deterministic(self):
        line = LinearArray(2)
        router = TabulatedRouter(
            line, {(0, 1): [0], (1, 0): [1], (0, 0): [], (1, 1): []}
        )
        cache = path_cache_for(router)
        assert isinstance(cache, PathCache)
        assert cache.path(0, 1) == (0,)
