"""Edge arrival rates and network load (Theorem 6 and Section 2.1).

Two independent routes to the same numbers:

* :func:`array_edge_rates` — the closed forms of Theorem 6 (Harchol-Balter
  and Black): an edge leaving ``(i, j)`` (1-based) carries
  ``(lam/n)(j-1)(n-j+1)`` leftward, ``(lam/n) j (n-j)`` rightward,
  ``(lam/n)(i-1)(n-i+1)`` upward, ``(lam/n) i (n-i)`` downward.
* :func:`edge_rates_from_routing` — an exact combinatorial traffic solver
  that works for *any* topology, router, and destination distribution by
  summing route indicator expectations over all (src, dst) pairs. Routers
  with a closed-form ``route_batch`` (greedy mesh, torus and hypercube)
  route each block of pairs in a few array ops; any other router falls
  back to its per-pair ``path``. Either way the weights are scattered
  with an in-order ``np.add.at``, so the rates are bit-identical to the
  plain per-pair loop.

The test suite checks they agree on the array, which is simultaneously a
test of the router, the closed forms, and the solver.

Load conventions
----------------
The paper defines ``rho = max_e lam_e / phi_e``. On the standard array the
bottleneck edges are the middle ones, giving capacity ``lam < 4/n`` for
even n and ``lam < 4n/(n^2-1)`` for odd n. Table I, however, tabulates by
``rho`` using the even-n formula ``lam = 4 rho / n`` for every n (verified
against all 24 printed estimate values — see DESIGN.md), so
:func:`lambda_for_load` supports both conventions explicitly.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from typing import Sequence

import numpy as np

from repro.routing.base import Router
from repro.routing.destinations import DestinationDistribution
from repro.topology.array_mesh import DOWN, LEFT, RIGHT, UP, ArrayMesh
from repro.util.validation import check_positive, check_side

#: Load conventions for converting a target rho to a per-node rate.
EXACT, TABLE1 = "exact", "table1"

#: (src, dst) pairs the traffic solver routes per block: bounds its
#: scratch arrays (weights, edge ids) whatever the network size.
PAIRS_PER_BLOCK = 2048


def array_edge_rate(n: int, lam: float, i: int, j: int, direction: str) -> float:
    """Theorem 6 arrival rate of one edge, in the paper's 1-based indexing.

    Parameters
    ----------
    n:
        Side of the square array.
    lam:
        Per-node Poisson generation rate.
    i, j:
        1-based row and column of the edge's *source* node.
    direction:
        One of ``"left" | "right" | "up" | "down"``.
    """
    check_side(n, "n")
    check_positive(lam, "lam", strict=False)
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"(i, j) = ({i}, {j}) outside the 1..{n} range")
    if direction == LEFT:
        return (lam / n) * (j - 1) * (n - j + 1)
    if direction == RIGHT:
        return (lam / n) * j * (n - j)
    if direction == UP:
        return (lam / n) * (i - 1) * (n - i + 1)
    if direction == DOWN:
        return (lam / n) * i * (n - i)
    raise ValueError(f"unknown direction {direction!r}")


def array_edge_rates(mesh: ArrayMesh, lam: float) -> np.ndarray:
    """Theorem 6 rates for every edge of a square mesh, indexed by edge id.

    Built with pure NumPy indexing against the mesh's per-direction edge-id
    blocks; for rectangular meshes the same counting argument applies with
    rows/cols separated (also implemented).
    """
    check_positive(lam, "lam", strict=False)
    rows, cols = mesh.rows, mesh.cols
    total = rows * cols
    rates = np.zeros(mesh.num_edges)
    # Horizontal edges: a right edge out of column j (0-based) separates
    # columns {0..j} from {j+1..}; it carries packets sourced in row i at
    # columns <= j destined anywhere with column > j.
    # rate = lam * (j+1) * (cols-1-j) * rows / total.
    for i in range(rows):
        for j in range(cols - 1):
            right = lam * (j + 1) * (cols - 1 - j) * rows / total
            rates[mesh.directed_edge_id(i, j, RIGHT)] = right
            rates[mesh.directed_edge_id(i, j + 1, LEFT)] = right
    # Vertical edges: after the row leg the packet is in its destination
    # column; a down edge out of row i separates rows {0..i} from {i+1..}.
    # rate = lam * (i+1) * (rows-1-i) * cols / total.
    for i in range(rows - 1):
        for j in range(cols):
            down = lam * (i + 1) * (rows - 1 - i) * cols / total
            rates[mesh.directed_edge_id(i, j, DOWN)] = down
            rates[mesh.directed_edge_id(i + 1, j, UP)] = down
    return rates


def _route_by_path(
    router: Router, srcs: np.ndarray, dsts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``route_batch`` for routers without one: ``path`` per pair,
    concatenated into ``(lens, edges)``."""
    paths = [router.path(s, d) for s, d in zip(srcs.tolist(), dsts.tolist())]
    lens = np.fromiter(map(len, paths), dtype=np.int64, count=len(paths))
    edges = np.fromiter(
        chain.from_iterable(paths), dtype=np.int64, count=int(lens.sum())
    )
    return lens, edges


def edge_rates_from_routing(
    router: Router,
    destinations: DestinationDistribution,
    node_rates: float | Sequence[float],
    *,
    source_nodes: Sequence[int] | None = None,
) -> np.ndarray:
    """Exact per-edge arrival rates for any routing system.

    Sums ``rate(src) * P(dst | src)`` over the canonical route of every
    (src, dst) pair with ``src != dst`` and a nonzero weight. Sources are
    taken in blocks of about :data:`PAIRS_PER_BLOCK` pairs; each block's
    pairs are routed in one ``router.route_batch`` call (the closed forms
    of the greedy mesh, torus and hypercube routers) or, for routers
    without one, by concatenating ``router.path`` per pair.

    The weights are scattered with ``np.add.at``, which applies
    ``rates[e] += w`` unbuffered in array order. The pairs come in
    source order, destinations ascending, hops in path order, so every
    float addition happens in the order of the plain per-pair triple
    loop and the result is bit-identical to it.

    Parameters
    ----------
    router:
        The routing scheme (its canonical :meth:`path` is used; for
        randomized routers pass each pure variant and mix externally).
    destinations:
        The destination law.
    node_rates:
        Per-source generation rate; a scalar broadcasts over sources.
    source_nodes:
        Which nodes generate packets (default: all), without repeats.
        The butterfly, for instance, only generates at level-0 nodes.
    """
    topo = router.topology
    n = topo.num_nodes
    if source_nodes is None:
        sources = np.arange(n)
    else:
        sources = np.asarray(source_nodes, dtype=np.int64).reshape(-1)
        uniq, counts = np.unique(sources, return_counts=True)
        if (counts > 1).any():
            raise ValueError(
                f"source_nodes repeats node {int(uniq[counts > 1][0])}"
            )
    if np.isscalar(node_rates):
        lam = np.full(sources.size, float(node_rates))  # type: ignore[arg-type]
    else:
        lam = np.asarray(node_rates, dtype=float).reshape(-1)
        if lam.size != sources.size:
            raise ValueError(
                f"node_rates has {lam.size} entries for {sources.size} sources"
            )
    route = getattr(router, "route_batch", None)
    if route is None:
        route = partial(_route_by_path, router)
    rates = np.zeros(topo.num_edges)
    block = max(1, PAIRS_PER_BLOCK // n)
    for lo in range(0, sources.size, block):
        srcs = sources[lo : lo + block]
        weights = lam[lo : lo + block, None] * np.stack(
            [destinations.pmf(int(s)) for s in srcs]
        )
        weights[np.arange(srcs.size), srcs] = 0.0
        rows, dsts = np.nonzero(weights)
        lens, edges = route(srcs[rows], dsts)
        np.add.at(rates, edges, np.repeat(weights[rows, dsts], lens))
    return rates


def max_edge_rate(n: int, lam: float) -> float:
    """The bottleneck (middle) edge rate of a square array.

    ``(lam/n) * max_i i(n-i)``: ``lam*n/4`` for even n and
    ``lam*(n^2-1)/(4n)`` for odd n.
    """
    check_side(n, "n")
    check_positive(lam, "lam", strict=False)
    if n % 2 == 0:
        return lam * n / 4.0
    return lam * (n * n - 1) / (4.0 * n)


def load_for_lambda(n: int, lam: float) -> float:
    """The paper's network load ``rho`` for per-node rate ``lam`` (unit edges)."""
    return max_edge_rate(n, lam)


def lambda_for_load(n: int, rho: float, convention: str = EXACT) -> float:
    """Per-node rate achieving network load ``rho``.

    Parameters
    ----------
    n:
        Array side.
    rho:
        Target network load in [0, 1).
    convention:
        ``"exact"`` inverts :func:`max_edge_rate` (parity-aware; this is
        the paper's definition of rho). ``"table1"`` uses ``lam = 4 rho/n``
        for every n — the convention the paper's Table I numbers were
        generated under (for odd n the realised exact load is slightly
        below the nominal rho).
    """
    check_side(n, "n")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    if convention == TABLE1:
        return 4.0 * rho / n
    if convention == EXACT:
        if n % 2 == 0:
            return 4.0 * rho / n
        return 4.0 * n * rho / (n * n - 1)
    raise ValueError(f"unknown convention {convention!r}; use 'exact' or 'table1'")


def total_external_rate(n: int, lam: float) -> float:
    """Overall packet generation rate ``lam * n^2`` of the square array."""
    check_side(n, "n")
    check_positive(lam, "lam", strict=False)
    return lam * n * n
