"""Shared path-cache arena: the per-packet routing hot path.

Paths are pure functions of ``(src, dst)`` for every deterministic
router, and a mixture of two such functions for the Section 6 randomized
scheme — so the per-packet routing work is memoizable. This module
provides that memo as a *flat shared arena*: each distinct path is built
once, and a packet record is an ``(offset, length)`` view into it.

Who uses it: the interpreter loops of every engine (``backend="python"``
and the rushed and PS engines) look up one packet at a time here, and
the shared-memory fan-out (:mod:`repro.sim.sharedcells`) publishes
complete small caches to pool workers. The vectorized kernels
(``backend="numpy"``) route mesh and hypercube packets in closed form
(``route_batch`` with static ``edge_levels``) and come here for every
other router — the randomized greedy scheme (whose coins this cache
draws), the torus (closed-form routes but no levels), the k-d and
butterfly routers, and RNG-drawing routers served by
:class:`SampledPathInterner` — through the batch lookups below. Large
networks get no dense table for them: a batch lookup there probes the
dict once per pair.

* :class:`PathArena` — an append-only flat edge-id store. The engines
  bind the plain Python list mirror (:attr:`PathArena.edges`), where list
  indexing beats NumPy scalar indexing by an order of magnitude; the
  ``int32`` snapshot (:meth:`PathArena.as_array`) and
  :meth:`PathArena.gather` are the export for NumPy-side consumers.
* :class:`PathCache` — a ``(src, dst) -> (offset, length)`` memo over an
  arena for deterministic routers. Lookups are one dict probe; a miss
  builds the path once with the router's own ``path`` and appends it to
  the arena. The router is the one route source: every shipped
  deterministic router builds ``path`` in closed form from per-leg
  edge-id arithmetic (the mesh, torus and hypercube routers share it
  with their ``route_batch``), and the cache adds only the memo. For
  networks up to :data:`DENSE_NODE_LIMIT` nodes a dense
  ``offset``/``length`` pair of arrays is kept alongside the dict so
  batch lookups are a single NumPy gather; larger networks probe the
  dict once per pair.
* :class:`RandomizedGreedyPathCache` — the variant for
  :class:`~repro.routing.randomized_greedy.RandomizedGreedyArrayRouter`:
  two tables (row-first / column-first, built from the scheme's two
  greedy routers) share one arena. The per-packet coin is the same
  single ``rng.random()`` draw the uncached router makes, so same-seed
  runs are bit-identical.
* :class:`SampledPathInterner` — the no-memo fallback for routers the
  cache layer does not recognise. It rebuilds the sampled path per
  packet, exactly like the pre-cache engines, but still interns the
  result into an arena so the engines can keep uniform
  ``(offset, length)`` packet records. Passing one to an engine as
  ``path_cache=SampledPathInterner(router)`` gives the per-packet
  rebuild baseline for any router.

Engines never call ``Router.sample_path`` directly any more; they go
through :func:`path_cache_for`, which picks the right flavour. Caches only
ever *grow* and cache state never influences results, so one cache can be
shared freely across the replications of a cell (see
:mod:`repro.sim.replication`).

Bit-identity contract
---------------------
Path caching must not change any simulation output: deterministic lookups
consume no RNG (as before), and the randomized variant draws exactly the
coin the uncached scheme drew. The golden-result tests
(``tests/test_golden_results.py``) pin this.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.routing.base import Router, is_deterministic
from repro.routing.randomized_greedy import RandomizedGreedyArrayRouter

#: Below this many nodes a cache also maintains dense ``n*n`` offset and
#: length arrays (1 MiB at the limit), enabling single-gather batch
#: lookups; larger networks stay dict-only to keep memory proportional to
#: the pairs actually routed.
DENSE_NODE_LIMIT = 256


class PathArena:
    """Append-only flat store of path edge ids with ``(offset, length)`` views.

    The arena is shared: several caches (e.g. the two tables of the
    randomized scheme) may append to one arena. ``edges`` is the Python
    list mirror used by the engines' interpreter loops and is only ever
    extended in place — engines may safely bind it to a local once.
    """

    __slots__ = ("edges", "_array", "_array_len")

    def __init__(self) -> None:
        self.edges: list[int] = []
        self._array: np.ndarray | None = None
        self._array_len = -1

    def add(self, path: Sequence[int]) -> int:
        """Append ``path`` and return its offset."""
        off = len(self.edges)
        self.edges.extend(path)
        return off

    def as_array(self) -> np.ndarray:
        """``int32`` snapshot of the arena (rebuilt lazily after growth).

        The engines themselves index :attr:`edges`; this view is for
        NumPy-side consumers that want the whole arena at once.
        """
        if self._array_len != len(self.edges):
            self._array = np.asarray(self.edges, dtype=np.int32)
            self._array_len = len(self.edges)
        return self._array

    def gather(self, offs: np.ndarray, lens: np.ndarray) -> np.ndarray:
        """Flat per-visit edge ids for parallel ``(offset, length)`` views.

        Returns one ``int32`` array concatenating the paths in order —
        the canonical hot-loop input of the vectorized kernels (visit
        ``k`` of packet ``i`` sits at ``cumsum(lens)[i-1] + k``). Call
        *after* all lookups: :meth:`as_array` snapshots the arena as it
        is now, and lookups may still grow it.
        """
        offs = np.asarray(offs, dtype=np.int64)
        lens = np.asarray(lens, dtype=np.int64)
        arr = self.as_array()
        if offs.size == 0:
            return np.empty(0, dtype=np.int32)
        cum = np.cumsum(lens)
        total = int(cum[-1])
        if bool(np.all(lens > 0)):
            # Pointer walk: +1 inside a path, jump at each boundary —
            # one cumsum instead of two repeats (needs non-empty paths).
            step = np.ones(total, dtype=np.int64)
            step[0] = offs[0]
            step[cum[:-1]] = offs[1:] - offs[:-1] - lens[:-1] + 1
            return arr[np.cumsum(step)]
        seg = np.repeat(np.arange(offs.size, dtype=np.int64), lens)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            cum - lens, lens
        )
        return arr[offs[seg] + within]

    def view(self, offset: int, length: int) -> tuple[int, ...]:
        """Materialise one ``(offset, length)`` slice as an edge tuple."""
        return tuple(self.edges[offset : offset + length])

    def adopt_array(self, edges: np.ndarray) -> None:
        """Adopt a published ``int32`` edge snapshot as the arena contents.

        Used by the shared-memory fan-out (:mod:`repro.sim.sharedcells`):
        a worker attaches the parent's arena snapshot zero-copy and binds
        it as :meth:`as_array` directly; the Python list mirror the
        interpreter loops index is materialised once per worker
        (``tolist`` — the only copy in the hand-off). Must be called on
        an empty arena; the arena keeps its append-only contract, so
        later misses extend ``edges`` past the snapshot and the next
        :meth:`as_array` call rebuilds the (then private) array.
        """
        if self.edges:
            raise ValueError("adopt_array requires an empty arena")
        self.edges = edges.tolist()
        self._array = edges
        self._array_len = len(self.edges)

    def __len__(self) -> int:
        return len(self.edges)


class PathCache:
    """Memoized ``(src, dst) -> (offset, length)`` views for a deterministic router.

    Parameters
    ----------
    router:
        A deterministic router (``sample_path`` must not consume RNG).
        Misses are built with ``router.path``.
    arena:
        Shared :class:`PathArena`; a private one is created if omitted.

    Memoization is lazy; :meth:`precompute_all` builds every pair up
    front when a long run will touch most of them anyway.
    """

    #: Engines check this to decide whether lookups need the packet RNG.
    consumes_rng = False

    def __init__(
        self,
        router: Router,
        *,
        arena: PathArena | None = None,
    ) -> None:
        self.router = router
        self.topology = router.topology
        self.num_nodes = int(self.topology.num_nodes)
        self.arena = arena if arena is not None else PathArena()
        self.table: dict[int, tuple[int, int]] = {}
        n = self.num_nodes
        if n <= DENSE_NODE_LIMIT:
            self._dense_off: np.ndarray | None = np.full(n * n, -1, dtype=np.int64)
            self._dense_len: np.ndarray | None = np.zeros(n * n, dtype=np.int64)
        else:
            self._dense_off = self._dense_len = None

    # -- scalar lookups (the event-engine hot path) --------------------
    def ensure(self, src: int, dst: int) -> tuple[int, int]:
        """Miss handler: build with ``router.path``, append, memoize."""
        path = self.router.path(src, dst)
        off = self.arena.add(path)
        ol = (off, len(path))
        key = src * self.num_nodes + dst
        self.table[key] = ol
        if self._dense_off is not None:
            self._dense_off[key] = ol[0]
            self._dense_len[key] = ol[1]
        return ol

    def offlen(self, src: int, dst: int) -> tuple[int, int]:
        """The ``(offset, length)`` view of the cached path."""
        ol = self.table.get(src * self.num_nodes + dst)
        return ol if ol is not None else self.ensure(src, dst)

    def sample_offlen(
        self, src: int, dst: int, rng: np.random.Generator
    ) -> tuple[int, int]:
        """Uniform engine interface; deterministic caches ignore ``rng``."""
        return self.offlen(src, dst)

    def path(self, src: int, dst: int) -> tuple[int, ...]:
        """The cached path as an edge tuple (tests / analysis)."""
        off, length = self.offlen(src, dst)
        return self.arena.view(off, length)

    # -- batch lookups (the slotted-engine vectorized kernel) ----------
    def offlen_batch(
        self, srcs: np.ndarray, dsts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``(offsets, lengths)`` for parallel ``(src, dst)`` arrays.

        With dense tables this is one NumPy gather (misses are filled
        first); dict-only caches fall back to a Python loop, still one
        dict probe per pair.
        """
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        if self._dense_off is not None:
            keys = srcs * self.num_nodes + dsts
            offs = self._dense_off[keys]
            if (offs < 0).any():
                table = self.table
                n = self.num_nodes
                for s, d in zip(srcs[offs < 0].tolist(), dsts[offs < 0].tolist()):
                    # Re-check per pair: a batch may repeat a missing
                    # pair, and a duplicate ensure() would append a dead
                    # copy of the path to the append-only shared arena.
                    if s * n + d not in table:
                        self.ensure(s, d)
                offs = self._dense_off[keys]
            return offs, self._dense_len[keys]
        offs = np.empty(srcs.size, dtype=np.int64)
        lens = np.empty(srcs.size, dtype=np.int64)
        offlen = self.offlen
        for i, (s, d) in enumerate(zip(srcs.tolist(), dsts.tolist())):
            offs[i], lens[i] = offlen(s, d)
        return offs, lens

    def sample_offlen_batch(
        self, srcs: np.ndarray, dsts: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Uniform batch interface; deterministic caches ignore ``rng``."""
        return self.offlen_batch(srcs, dsts)

    def precompute_all(self) -> None:
        """Materialise every ``(src, dst)`` pair (small networks only)."""
        n = self.num_nodes
        table = self.table
        for src in range(n):
            base = src * n
            for dst in range(n):
                if base + dst not in table:
                    self.ensure(src, dst)

    # -- shared-memory snapshot hand-off -------------------------------
    @property
    def complete(self) -> bool:
        """Every ``(src, dst)`` pair is cached (nothing left to build)."""
        n = self.num_nodes
        return len(self.table) == n * n

    def table_snapshot(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Dense ``(offsets, lengths)`` export for *complete* caches.

        The shared-memory fan-out (:mod:`repro.sim.sharedcells`) publishes
        this pair next to the arena's ``int32`` snapshot so pool workers
        can adopt a fully built cache instead of re-routing every path.
        Only complete dense caches export: a partial table would leave
        workers writing misses into memory shared across processes.
        """
        if self._dense_off is None or not self.complete:
            return None
        return self._dense_off, self._dense_len

    def adopt_table(self, dense_off: np.ndarray, dense_len: np.ndarray) -> None:
        """Adopt a published complete dense table (worker side).

        ``dense_off``/``dense_len`` may live in shared memory: they are
        bound read-only as the batch-lookup tables (misses cannot happen
        on a complete cache, so nothing ever writes to them). The dict
        used by the scalar hot path is rebuilt privately — plain dict
        probes stay the fastest per-packet lookup. The arena must have
        adopted the matching edge snapshot first
        (:meth:`PathArena.adopt_array`).
        """
        if self.table:
            raise ValueError("adopt_table requires an empty cache")
        n = self.num_nodes
        if dense_off.shape != (n * n,) or dense_len.shape != (n * n,):
            raise ValueError(
                f"dense table shape {dense_off.shape} does not match "
                f"{n}x{n} nodes"
            )
        offs = dense_off.tolist()
        lens = dense_len.tolist()
        self.table = {k: (offs[k], lens[k]) for k in range(n * n)}
        dense_off = dense_off.view()
        dense_len = dense_len.view()
        dense_off.setflags(write=False)
        dense_len.setflags(write=False)
        self._dense_off = dense_off
        self._dense_len = dense_len

    def __len__(self) -> int:
        return len(self.table)


class RandomizedGreedyPathCache:
    """Path cache for the Section 6 randomized greedy scheme.

    Holds two :class:`PathCache` tables on one shared arena, built from
    the scheme's row-first and column-first greedy routers.
    ``sample_offlen`` draws exactly the one coin
    ``RandomizedGreedyArrayRouter.sample_path`` draws, keeping same-seed
    runs bit-identical to the uncached scheme.
    """

    consumes_rng = True

    def __init__(self, router: RandomizedGreedyArrayRouter) -> None:
        self.router = router
        self.topology = router.topology
        self.arena = PathArena()
        self.row_first_probability = router.row_first_probability
        self.row_first = PathCache(router._row_first, arena=self.arena)
        self.col_first = PathCache(router._col_first, arena=self.arena)

    def sample_offlen(
        self, src: int, dst: int, rng: np.random.Generator
    ) -> tuple[int, int]:
        """One coin (same draw as the uncached scheme), one dict probe."""
        if rng.random() < self.row_first_probability:
            return self.row_first.offlen(src, dst)
        return self.col_first.offlen(src, dst)

    def sample_offlen_batch(
        self, srcs: np.ndarray, dsts: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batch coins, then gather from the two tables.

        The coins are one ``rng.random(k)`` call — bit-identical to the
        per-packet scalar coins because path composition consumes no RNG
        between them.
        """
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        heads = rng.random(srcs.size) < self.row_first_probability
        offs = np.empty(srcs.size, dtype=np.int64)
        lens = np.empty(srcs.size, dtype=np.int64)
        for table, mask in (
            (self.row_first, heads),
            (self.col_first, ~heads),
        ):
            if mask.any():
                offs[mask], lens[mask] = table.offlen_batch(srcs[mask], dsts[mask])
        return offs, lens

    def precompute_all(self) -> None:
        """Materialise both order tables for every pair (small meshes)."""
        self.row_first.precompute_all()
        self.col_first.precompute_all()

    @property
    def complete(self) -> bool:
        """Both order tables cover every ``(src, dst)`` pair."""
        return self.row_first.complete and self.col_first.complete

    def path(self, src: int, dst: int) -> tuple[int, ...]:
        """Canonical (row-first) cached path."""
        return self.row_first.path(src, dst)


class SampledPathInterner:
    """Uncached adapter: per-packet rebuild, arena-interned records.

    Used for routers :func:`path_cache_for` does not recognise, and as the
    per-packet rebuild baseline (pass ``path_cache=SampledPathInterner(
    router)`` to an engine). Every lookup calls
    ``router.sample_path`` — identical RNG consumption and per-packet cost
    to the pre-cache engines — then interns the resulting edge tuple so
    packet records stay ``(offset, length)``. Interning bounds arena
    growth by the number of *distinct* paths, not packets.
    """

    consumes_rng = True

    def __init__(self, router: Router) -> None:
        self.router = router
        self.topology = router.topology
        self.arena = PathArena()
        self._seen: dict[tuple[int, ...], tuple[int, int]] = {}

    def sample_offlen(
        self, src: int, dst: int, rng: np.random.Generator
    ) -> tuple[int, int]:
        path = tuple(self.router.sample_path(src, dst, rng))
        ol = self._seen.get(path)
        if ol is None:
            ol = self._seen[path] = (self.arena.add(path), len(path))
        return ol

    def sample_offlen_batch(
        self, srcs: np.ndarray, dsts: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        offs = np.empty(len(srcs), dtype=np.int64)
        lens = np.empty(len(srcs), dtype=np.int64)
        for i, (s, d) in enumerate(
            zip(np.asarray(srcs).tolist(), np.asarray(dsts).tolist())
        ):
            offs[i], lens[i] = self.sample_offlen(s, d, rng)
        return offs, lens


def path_cache_for(router: Router):
    """Build the right cache flavour for ``router``.

    Deterministic routers (any :class:`BaseRouter` subclass that does not
    override ``sample_path``) get a :class:`PathCache` over their own
    ``path``. The randomized greedy scheme gets its two-table
    :class:`RandomizedGreedyPathCache`; anything else falls back to the
    :class:`SampledPathInterner`, which preserves pre-cache behaviour
    exactly.
    """
    if isinstance(router, RandomizedGreedyArrayRouter):
        return RandomizedGreedyPathCache(router)
    if is_deterministic(router):
        return PathCache(router)
    return SampledPathInterner(router)


def resolve_path_cache(router: Router, *, path_cache=None):
    """Resolve an engine's path cache — the one constructor policy all four
    simulators share.

    An externally supplied ``path_cache`` must have been built for this
    very ``router`` *instance*: an equal-sized topology is not enough,
    since a cache built for a different scheme (say the column-first
    mesh order) would silently simulate the wrong routing. Otherwise
    build the right flavour via :func:`path_cache_for`.
    """
    if path_cache is not None:
        if path_cache.router is not router:
            raise ValueError(
                "path_cache was built for a different router instance; "
                "share the router object along with its cache"
            )
        return path_cache
    return path_cache_for(router)
