"""Router protocol and shared routing machinery.

A router is anything that maps a ``(src, dst)`` node pair to a tuple of
edge ids. Deterministic (oblivious) routers implement :meth:`Router.path`;
randomized routers additionally take the per-packet RNG through
:meth:`Router.sample_path`, whose default delegates to the deterministic
path. The simulator always calls :meth:`sample_path`, so deterministic and
randomized schemes share one code path.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.topology.base import Topology


@runtime_checkable
class Router(Protocol):
    """Protocol for routing schemes."""

    topology: Topology

    def path(self, src: int, dst: int) -> tuple[int, ...]:
        """Edge-id path from ``src`` to ``dst`` (empty if ``src == dst``).

        For randomized routers this must return a *canonical* path (used by
        analysis); per-packet randomness goes through :meth:`sample_path`.
        """
        ...

    def sample_path(self, src: int, dst: int, rng: np.random.Generator) -> tuple[int, ...]:
        """Sample a path for one packet; deterministic routers ignore ``rng``."""
        ...


class BaseRouter:
    """Shared implementation: deterministic routers only override ``path``."""

    topology: Topology

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        # Every edge id as one shared int object. Closed-form ``path``
        # implementations slice or index this list rather than compute
        # fresh ints, so all path-cache arena entries naming an edge
        # share its one object (a fresh int per entry doubles the
        # memory of an arena holding millions of entries).
        self._edge_ids = list(range(topology.num_edges))

    def path(self, src: int, dst: int) -> tuple[int, ...]:  # pragma: no cover
        raise NotImplementedError

    def sample_path(
        self, src: int, dst: int, rng: np.random.Generator
    ) -> tuple[int, ...]:
        """Default: the deterministic path, independent of ``rng``."""
        return self.path(src, dst)

    # Convenience used by tests and the analysis layer --------------------
    def path_length(self, src: int, dst: int) -> int:
        """Number of edges on the canonical path."""
        return len(self.path(src, dst))

    def all_pairs_paths(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Materialise every (src, dst) canonical path (small networks only)."""
        n = self.topology.num_nodes
        return {(s, t): self.path(s, t) for s in range(n) for t in range(n)}


def is_deterministic(router: Router) -> bool:
    """True when ``router``'s paths consume no RNG: a :class:`BaseRouter`
    that keeps the default (deterministic) :meth:`~BaseRouter.sample_path`."""
    sample = getattr(type(router), "sample_path", None)
    return isinstance(router, BaseRouter) and sample is BaseRouter.sample_path


class TabulatedRouter(BaseRouter):
    """A router backed by an explicit path table.

    Useful for adversarial or hand-constructed schemes in tests (e.g. a
    deliberately non-layered labelling witness) and for freezing a
    randomized router's sampled choices.

    Parameters
    ----------
    topology:
        The network the paths live on.
    table:
        Mapping ``(src, dst) -> path``; missing pairs raise ``KeyError``.
        Every path is validated against the topology at construction.
    """

    def __init__(
        self,
        topology: Topology,
        table: dict[tuple[int, int], Sequence[int]],
    ) -> None:
        super().__init__(topology)
        frozen: dict[tuple[int, int], tuple[int, ...]] = {}
        for (src, dst), path in table.items():
            p = tuple(int(e) for e in path)
            topology.validate_path(p, src, dst)
            frozen[(src, dst)] = p
        self._table = frozen

    def path(self, src: int, dst: int) -> tuple[int, ...]:
        return self._table[(src, dst)]
