"""Shared constructor policy for the four simulation engines.

Before this module, :class:`~repro.sim.fifo_network.NetworkSimulation`,
:class:`~repro.sim.slotted.SlottedNetworkSimulation`,
:class:`~repro.sim.rushed_network.RushedNetworkSimulation` and
:class:`~repro.sim.ps_network.PSNetworkSimulation` each carried a
near-verbatim copy of the same constructor block: resolve the source-node
list, validate the per-node rates (:func:`~repro.util.validation.check_node_rates`),
build the pinned source CDF used by the ``side='right'`` boundary-safe
draw, decide whether the uniform fast-id block draw applies, and resolve
the shared path cache (:func:`~repro.routing.pathcache.resolve_path_cache`).
:class:`EngineCommon` is that block, written once.

The one load-bearing difference between the copies is *which source order
the fast-id predicate demands*:

* the event-driven engines (fifo, rushed) draw fast ids as node ids
  directly (``rng.integers(0, num_nodes)``), so any ordering of a full
  source set works — they require only **sorted** equality with
  ``range(num_nodes)``;
* the slotted engine's id-pair draw requires the **identity** order
  ``source_nodes == range(num_nodes)`` (a rule kept from its original
  per-packet stream, where a drawn id was the source's index; any other
  order takes the source-batch draw instead);
* the PS engine has no fast-id path at all.

That difference is expressed as the ``fast_id_order`` mode
(:data:`SORTED_IDS` / :data:`IDENTITY_IDS` / :data:`NO_FAST_IDS`) instead
of being re-derived, slightly differently, in four places. The
identity-vs-sorted regression tests pin it.

The remaining shared validation — per-edge service rates and the
saturated-edge mask — lives here too (:func:`resolve_service_rates`,
:func:`resolve_saturated_mask`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.routing.base import Router
from repro.routing.destinations import DestinationDistribution, UniformDestinations
from repro.routing.pathcache import resolve_path_cache
from repro.util.validation import check_node_rates, check_positive, pinned_cdf

#: Fast-id source-order requirements (see module docstring).
SORTED_IDS, IDENTITY_IDS, NO_FAST_IDS = "sorted", "identity", "none"


class EngineCommon:
    """The source-rate / fast-id / path-cache policy all engines share.

    Parameters
    ----------
    router:
        Routing scheme (carries the topology).
    destinations:
        Destination law (its type decides the uniform-destination flag).
    node_rate:
        Per-source Poisson rate; a scalar broadcasts over every source,
        a sequence must align with ``source_nodes``.
    source_nodes:
        Generating nodes (default: all nodes).
    fast_id_order:
        Which source ordering the engine's fast-id block draw requires:
        :data:`SORTED_IDS` (event-driven engines), :data:`IDENTITY_IDS`
        (the slotted engine) or :data:`NO_FAST_IDS` (PS).
    path_cache:
        Passed to :func:`~repro.routing.pathcache.resolve_path_cache`:
        ``None`` builds the router's cache flavour, and a
        :class:`~repro.routing.pathcache.SampledPathInterner` for the
        router rebuilds every packet's path.

    Attributes
    ----------
    source_nodes, node_rates, total_rate:
        The validated source set and its rates.
    uniform_sources:
        Every listed source generates at (numerically) the same rate.
    source_cdf:
        Pinned CDF over ``node_rates`` for the ``side='right'`` draw — a
        draw landing exactly on a CDF boundary (e.g. ``u = 0.0`` with a
        leading zero-rate source) can never select a zero-rate source.
        Always built (it is RNG-free and cheap), even on paths that only
        consult it for non-uniform rates.
    uniform_dests:
        The destination law is :class:`UniformDestinations`.
    fast_ids:
        The engine may draw ``(src, dst)`` id pairs from a single uniform
        integer block (requires uniform sources over *all* nodes in the
        engine's required order, and uniform destinations).
    path_cache:
        The resolved shared path cache.
    """

    def __init__(
        self,
        router: Router,
        destinations: DestinationDistribution,
        node_rate: float | Sequence[float],
        *,
        source_nodes: Sequence[int] | None = None,
        fast_id_order: str = SORTED_IDS,
        path_cache=None,
    ) -> None:
        if fast_id_order not in (SORTED_IDS, IDENTITY_IDS, NO_FAST_IDS):
            raise ValueError(
                f"fast_id_order must be '{SORTED_IDS}', '{IDENTITY_IDS}' or "
                f"'{NO_FAST_IDS}', got {fast_id_order!r}"
            )
        self.router = router
        self.topology = router.topology
        self.destinations = destinations
        self.source_nodes = (
            list(range(self.topology.num_nodes))
            if source_nodes is None
            else [int(s) for s in source_nodes]
        )
        if not self.source_nodes:
            raise ValueError("at least one source node is required")
        if np.isscalar(node_rate):
            check_positive(node_rate, "node_rate")
            self.node_rates = np.full(len(self.source_nodes), float(node_rate))
        else:
            self.node_rates = check_node_rates(
                node_rate, len(self.source_nodes), "node_rate"
            )
        self.total_rate = float(self.node_rates.sum())
        self.uniform_sources = bool(
            np.allclose(self.node_rates, self.node_rates[0])
        )
        self.source_cdf = pinned_cdf(self.node_rates)
        self.uniform_dests = isinstance(destinations, UniformDestinations)
        all_nodes = list(range(self.topology.num_nodes))
        if fast_id_order == SORTED_IDS:
            order_ok = sorted(self.source_nodes) == all_nodes
        elif fast_id_order == IDENTITY_IDS:
            order_ok = self.source_nodes == all_nodes
        else:
            order_ok = False
        self.fast_ids = self.uniform_sources and self.uniform_dests and order_ok
        self.path_cache = resolve_path_cache(router, path_cache=path_cache)

    def install(self, sim) -> None:
        """Install the shared attribute surface on an engine instance.

        Engines keep the exact pre-extraction attribute names
        (``_uniform_sources``, ``_source_cdf``, ``_fast_ids``, ...) so
        their hot loops — and any test reaching into them — are untouched.
        """
        sim.router = self.router
        sim.topology = self.topology
        sim.destinations = self.destinations
        sim.source_nodes = self.source_nodes
        sim.node_rates = self.node_rates
        sim.total_rate = self.total_rate
        sim._uniform_sources = self.uniform_sources
        sim._source_cdf = self.source_cdf
        sim._uniform_dests = self.uniform_dests
        sim._fast_ids = self.fast_ids
        sim.path_cache = self.path_cache


def resolve_service_rates(
    service_rates: float | Sequence[float], num_edges: int
) -> np.ndarray:
    """Validate per-edge service rates ``phi_e`` (a scalar broadcasts)."""
    if np.isscalar(service_rates):
        phi = np.full(num_edges, float(service_rates))
    else:
        phi = np.asarray(service_rates, dtype=float)
        if phi.shape != (num_edges,):
            raise ValueError(
                f"service_rates must have {num_edges} entries, got {phi.shape}"
            )
    if np.any(phi <= 0):
        raise ValueError("service rates must be positive")
    return phi


def resolve_saturated_mask(
    saturated_mask: Sequence[bool] | None, num_edges: int
) -> list[bool] | None:
    """Validate the optional boolean per-edge saturation mask."""
    if saturated_mask is None:
        return None
    mask = np.asarray(saturated_mask, dtype=bool)
    if mask.shape != (num_edges,):
        raise ValueError(
            f"saturated_mask must have {num_edges} entries, got {mask.shape}"
        )
    return mask.tolist()
