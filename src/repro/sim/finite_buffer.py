"""Finite-buffer FIFO loss engine: the standard model with bounded queues.

The paper's bounds all assume infinite buffers; real routers do not.
This engine reproduces :class:`repro.sim.fifo_network.NetworkSimulation`
— same service laws, same hot-path architecture — but gives every node a
finite amount of waiting room and *drops* any packet that arrives to a
full buffer, so loss rates and blocking can be measured against the
infinite-buffer baseline (the loss-vs-buffer-size experiment,
:mod:`repro.experiments.finite_buffer`, sweeps exactly that).

Semantics
---------
``buffer_size`` is the waiting room per outgoing edge, *excluding* the
packet in service: a scalar applies to every node, a per-node sequence
gives node ``v``'s value to every edge leaving ``v``, and ``None`` means
infinite buffers. ``buffer_size=0`` is the pure-loss system — a packet
that finds its next edge busy is dropped on the spot. A drop removes the
packet immediately (mid-route drops do not retry, re-route or occupy the
buffer), mirroring tail-drop routers. Drop accounting follows the same
measurement convention as every other statistic: only *measured* packets
(born inside the window) count, so a buffer that is full at the
warmup boundary contributes no phantom drops, and after the drain
``completed + dropped == generated`` exactly. ``mean_delay`` averages
over surviving (completed) packets — with tiny buffers it can *drop*
as K shrinks, because the packets that would have waited longest are
exactly the ones lost.

Hot path and bit-identity
-------------------------
The engine runs the FIFO engine's own loops: the python kernel's
``run_finite`` calls the same loop family as ``run_fifo``
(:mod:`repro.sim.kernels.python_backend`), passing the per-edge caps
that switch on the tail-drop admission test at the two enqueue points
(a packet's entry edge and each next hop). Everything else — the
:class:`~repro.sim.enginecommon.EngineCommon` constructor policy, the
shared path-cache arena with ``(arena_offset, length)`` packet records,
blocked RNG draws, the monotone-merge event loop for uniform
deterministic service (drops never schedule events, so departure pushes
stay nondecreasing) and the ``heapq`` event loop for stochastic
service — is shared code.
With ``buffer_size=None`` the run is delegated to the FIFO engine, so
it is *bit-identical* to ``engine="fifo"`` — pinned by the
``finite_none_*`` golden cells — and with buffers too large to ever
fill, the capped loops perform the exact same draws, event ordering and
float accumulation as the uncapped ones (the admission test consumes no
randomness), which the regression tests pin on every tracked statistic.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.routing.base import Router
from repro.routing.destinations import DestinationDistribution
from repro.sim.fifo_network import NetworkSimulation
from repro.sim.kernels import FINITE_KERNEL, NUMPY_BACKEND, get_kernel
from repro.sim.result import SimResult
from repro.util.validation import check_positive


def resolve_buffer_size(
    buffer_size: int | Sequence[int] | None, num_nodes: int
) -> list[int] | None:
    """Validate ``buffer_size`` into a per-node waiting-room list.

    ``None`` means infinite buffers; a scalar int broadcasts over every
    node; a sequence must carry one non-negative int per node.
    """
    if buffer_size is None:
        return None
    if isinstance(buffer_size, bool):
        raise ValueError(f"buffer_size must be an int, got {buffer_size!r}")
    if np.isscalar(buffer_size):
        k = buffer_size
        if not float(k).is_integer() or int(k) < 0:
            raise ValueError(
                f"buffer_size must be a non-negative int, got {buffer_size!r}"
            )
        return [int(k)] * num_nodes
    sizes = list(buffer_size)
    if len(sizes) != num_nodes:
        raise ValueError(
            f"per-node buffer_size must have {num_nodes} entries, "
            f"got {len(sizes)}"
        )
    out: list[int] = []
    for v in sizes:
        if isinstance(v, bool) or not float(v).is_integer() or int(v) < 0:
            raise ValueError(
                f"per-node buffer_size entries must be non-negative ints, "
                f"got {v!r}"
            )
        out.append(int(v))
    return out


class FiniteBufferNetworkSimulation(NetworkSimulation):
    """FIFO network with per-node finite buffers and tail-drop loss.

    Parameters mirror :class:`repro.sim.NetworkSimulation`, plus:

    buffer_size:
        Waiting room per outgoing edge, excluding the packet in service.
        A scalar int broadcasts over all nodes; a per-node sequence gives
        node ``v``'s room to each of its outgoing edges; ``None``
        (the default) reproduces the infinite-buffer FIFO engine
        bit-for-bit.
    """

    def __init__(
        self,
        router: Router,
        destinations: DestinationDistribution,
        node_rate: float | Sequence[float],
        *,
        buffer_size: int | Sequence[int] | None = None,
        **kwargs,
    ) -> None:
        super().__init__(router, destinations, node_rate, **kwargs)
        topology = router.topology
        per_node = resolve_buffer_size(buffer_size, topology.num_nodes)
        self.buffer_size = buffer_size
        #: Per-edge waiting-room cap (node caps fanned onto out-edges),
        #: or ``None`` for infinite buffers.
        self._edge_caps: list[int] | None = None
        self._edge_tail: list[int] = topology.edge_source.tolist()
        if per_node is not None:
            self._edge_caps = [per_node[u] for u in self._edge_tail]
        if self._edge_caps is not None and self.backend == NUMPY_BACKEND:
            # Tail-drop admission couples every packet's trajectory to
            # instantaneous queue lengths, which breaks the max-plus
            # decomposition the vectorized kernel relies on.
            raise ValueError(
                "backend='numpy' does not support finite buffers "
                "(tail-drop admission is state-dependent); use "
                "backend='python' or buffer_size=None"
            )

    # ------------------------------------------------------------------
    def run(
        self,
        warmup: float,
        horizon: float,
        *,
        track_utilization: bool = False,
        collect_delays: bool = False,
        track_number_distribution: bool = False,
        track_maxima: bool = False,
        delay_batches: int = 32,
    ) -> SimResult:
        """Simulate ``warmup + horizon`` time units and drain.

        Options are as in :meth:`NetworkSimulation.run`. With
        ``buffer_size=None`` the run delegates to the FIFO engine (the
        result then has ``node_drops=None``); otherwise the finite
        kernel runs and the result carries ``dropped`` / ``node_drops``.
        """
        if self._edge_caps is None:
            return super().run(
                warmup,
                horizon,
                track_utilization=track_utilization,
                collect_delays=collect_delays,
                track_number_distribution=track_number_distribution,
                track_maxima=track_maxima,
                delay_batches=delay_batches,
            )
        check_positive(horizon, "horizon")
        if warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {warmup}")
        return get_kernel(FINITE_KERNEL, self.backend)(
            self,
            warmup,
            horizon,
            track_utilization=track_utilization,
            collect_delays=collect_delays,
            track_number_distribution=track_number_distribution,
            track_maxima=track_maxima,
            delay_batches=delay_batches,
        )
