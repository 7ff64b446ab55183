"""Scenario registry: named traffic workloads for the replication engine.

A *scenario* bundles the three structural choices of a simulation cell —
topology, routing scheme, destination law — behind a name, so experiments,
the CLI and benchmarks can say ``CellSpec(scenario="hotspot", n=8,
rho=0.8)`` instead of hand-wiring constructors. Each scenario also knows
how to *calibrate* a target network load ``rho = max_e lam_e / phi_e`` to
a per-node rate: the standard model uses the paper's closed forms (and
honours the Table I ``"table1"`` convention), every other workload is
calibrated exactly by the generic traffic solver
:func:`repro.core.rates.edge_rates_from_routing`, which works because all
destination laws expose exact ``pmf`` views. The solver routes whole
blocks of pairs through the closed-form ``route_batch`` of the greedy
mesh, torus and hypercube routers, so calibrating any built-in workload
walks no per-pair path; the result is bit-identical to the per-pair sum.

Built-in scenarios
------------------
``uniform``
    The paper's standard model: n-by-n mesh, row-first greedy routing,
    uniform destinations.
``randomized``
    Section 6's randomized greedy (fair row/column-first coin) on the
    uniform workload.
``hotspot``
    Uniform mesh workload with extra probability mass ``h`` (default 0.25)
    on a hot node (default: the center of the mesh).
``transpose``
    Fixed-permutation transpose traffic ``(i, j) -> (j, i)`` on the mesh.
``bitreversal``
    Bit-reversal permutation traffic on the ``n``-dimensional hypercube
    under canonical-order greedy routing (here ``n`` is the dimension).
``geometric``
    Section 5.2's distance-biased law (stop parameter ``stop``, default
    0.5) on the mesh.
``torus``
    Uniform traffic on the n-by-n torus under shortest-way greedy routing
    (the Section 6 open-problem topology).
``single``
    One isolated M/*/1 queue: on the 2x2 mesh only node 0 generates and
    always targets node 1, so all traffic crosses the single edge
    ``0 -> 1`` at rate exactly ``rho`` — the reference cell the
    validation harness (:mod:`repro.validation`) compares against the
    M/M/1 / M/D/1 / M/M/1/K closed forms.

Adding a scenario is one :func:`register` call; anything registered is
immediately usable from ``python -m repro simulate --scenario <name>``,
on any simulator in the engine registry (:mod:`repro.sim.registry`) —
the scenario names the *workload*, the engine names the *simulator*, and
:class:`~repro.sim.replication.CellSpec` crosses the two declaratively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.rates import array_edge_rates, edge_rates_from_routing, lambda_for_load
from repro.core.saturation import saturated_edge_mask
from repro.routing.base import Router
from repro.routing.destinations import (
    DestinationDistribution,
    GeometricStopDestinations,
    HotSpotDestinations,
    PermutationDestinations,
    UniformDestinations,
)
from repro.routing.greedy import GreedyArrayRouter
from repro.routing.hypercube_greedy import GreedyHypercubeRouter
from repro.routing.randomized_greedy import RandomizedGreedyArrayRouter
from repro.routing.torus_greedy import GreedyTorusRouter
from repro.sim.replication import CellSpec
from repro.topology.array_mesh import ArrayMesh
from repro.topology.hypercube import Hypercube
from repro.topology.torus import Torus


@dataclass(frozen=True)
class ScenarioNetwork:
    """The concrete network a scenario builds: router (carrying the
    topology), destination law, and optionally a source subset."""

    router: Router
    destinations: DestinationDistribution
    source_nodes: list[int] | None = None


@dataclass(frozen=True)
class Scenario:
    """A registry entry: a builder plus calibration metadata.

    ``standard_mesh`` marks scenarios whose rate map is the paper's
    Theorem 6 closed form (uniform traffic on the mesh under a greedy
    order), which both enables the ``"table1"`` load convention and keeps
    Table I/III calibration bit-identical to the pre-engine code path.
    ``bounds_apply`` marks the one scheme the paper's Theorem 7 upper
    bound covers: the randomized mixture shares the standard rate map but
    is not layered, so the bound sandwich must not be asserted for it.
    """

    name: str
    description: str
    build: Callable[..., ScenarioNetwork]
    standard_mesh: bool = False
    bounds_apply: bool = False


_REGISTRY: dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry (name must be unused)."""
    if scenario.name in _REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown scenario {name!r} (known: {known})") from None


def available_scenarios() -> list[Scenario]:
    """All registered scenarios, sorted by name."""
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def build_network(name: str, n: int, **params) -> ScenarioNetwork:
    """Build the named scenario's network at size ``n``."""
    return get_scenario(name).build(n, **params)


def resolve_cell(spec: CellSpec) -> tuple[float | tuple, np.ndarray | None]:
    """Resolve a :class:`CellSpec` to ``(node_rate, saturated_mask)``.

    The explicit ``spec.node_rate`` wins when given; otherwise
    ``spec.rho`` is calibrated through the scenario (closed forms for the
    standard mesh honouring ``spec.convention``, the generic traffic
    solver for everything else). The mask is ``None`` unless
    ``spec.track_saturated``.
    """
    scenario = get_scenario(spec.scenario)
    net = scenario.build(spec.n, **spec.params_dict)
    unit = None  # solver rates at node_rate = 1, reusable: rates are linear
    if spec.node_rate is not None:
        node_rate = spec.node_rate
    elif scenario.standard_mesh:
        node_rate = lambda_for_load(spec.n, spec.rho, spec.convention)
    else:
        unit = edge_rates_from_routing(
            net.router, net.destinations, 1.0, source_nodes=net.source_nodes
        )
        peak = float(unit.max())
        if peak <= 0:
            raise ValueError(
                f"scenario {spec.scenario!r} carries no traffic at n={spec.n}"
            )
        node_rate = spec.rho / peak
    if not spec.track_saturated:
        return node_rate, None
    if scenario.standard_mesh and np.isscalar(node_rate):
        rates = array_edge_rates(net.router.topology, node_rate)
    elif unit is not None:
        rates = unit * node_rate
    else:
        rates = edge_rates_from_routing(
            net.router, net.destinations, node_rate, source_nodes=net.source_nodes
        )
    return node_rate, saturated_edge_mask(rates)


# ----------------------------------------------------------------------
# Built-in scenarios.


def _uniform(n: int) -> ScenarioNetwork:
    mesh = ArrayMesh(n)
    return ScenarioNetwork(GreedyArrayRouter(mesh), UniformDestinations(mesh.num_nodes))


def _randomized(n: int, p: float = 0.5) -> ScenarioNetwork:
    mesh = ArrayMesh(n)
    return ScenarioNetwork(
        RandomizedGreedyArrayRouter(mesh, row_first_probability=p),
        UniformDestinations(mesh.num_nodes),
    )


def _hotspot(n: int, h: float = 0.25, hot_node: int | None = None) -> ScenarioNetwork:
    mesh = ArrayMesh(n)
    hot = mesh.node_id(n // 2, n // 2) if hot_node is None else int(hot_node)
    return ScenarioNetwork(
        GreedyArrayRouter(mesh),
        HotSpotDestinations(mesh.num_nodes, hot_node=hot, h=h),
    )


def _transpose(n: int) -> ScenarioNetwork:
    mesh = ArrayMesh(n)
    return ScenarioNetwork(
        GreedyArrayRouter(mesh), PermutationDestinations.transpose(mesh)
    )


def _bitreversal(n: int) -> ScenarioNetwork:
    cube = Hypercube(n)
    return ScenarioNetwork(
        GreedyHypercubeRouter(cube),
        PermutationDestinations.bit_reversal(cube.num_nodes),
    )


def _geometric(n: int, stop: float = 0.5) -> ScenarioNetwork:
    mesh = ArrayMesh(n)
    return ScenarioNetwork(
        GreedyArrayRouter(mesh), GeometricStopDestinations(mesh, stop=stop)
    )


def _single(n: int) -> ScenarioNetwork:
    # The smallest mesh that isolates one queue: node 0 is the only
    # source and always targets its row neighbour 1, so every packet
    # crosses exactly the edge 0 -> 1 and that edge is an M/*/1 queue in
    # isolation. The permutation is an involution (0<->1, 2<->3) so the
    # destination law stays a valid full permutation; the peak unit-rate
    # edge load is 1, hence the generic calibration gives node_rate = rho
    # exactly and the simulated queue has arrival rate rho, service rate
    # 1 — directly comparable to the M/M/1, M/D/1 and M/M/1/K closed
    # forms of repro.queueing (the validation harness's reference cells).
    if n != 2:
        raise ValueError(f"the single-queue scenario is fixed at n=2, got n={n}")
    mesh = ArrayMesh(2)
    return ScenarioNetwork(
        GreedyArrayRouter(mesh),
        PermutationDestinations([1, 0, 3, 2]),
        source_nodes=[0],
    )


def _torus(n: int) -> ScenarioNetwork:
    torus = Torus(n)
    return ScenarioNetwork(
        GreedyTorusRouter(torus), UniformDestinations(torus.num_nodes)
    )


register(
    Scenario(
        "uniform",
        "standard model: mesh, row-first greedy, uniform destinations",
        _uniform,
        standard_mesh=True,
        bounds_apply=True,
    )
)
register(
    Scenario(
        "randomized",
        "Section 6 randomized greedy (row/column coin) on uniform traffic",
        _randomized,
        standard_mesh=True,
    )
)
register(
    Scenario(
        "hotspot",
        "uniform mesh traffic with extra mass h on a hot node",
        _hotspot,
    )
)
register(
    Scenario(
        "transpose",
        "fixed-permutation transpose traffic (i,j) -> (j,i) on the mesh",
        _transpose,
    )
)
register(
    Scenario(
        "bitreversal",
        "bit-reversal permutation on the n-dimensional hypercube",
        _bitreversal,
    )
)
register(
    Scenario(
        "geometric",
        "Section 5.2 distance-biased destinations on the mesh",
        _geometric,
    )
)
register(
    Scenario(
        "single",
        "one isolated M/*/1 queue (2x2 mesh, node 0 -> 1 only) for "
        "closed-form validation cells",
        _single,
    )
)
register(
    Scenario(
        "torus",
        "uniform traffic on the torus under shortest-way greedy routing",
        _torus,
    )
)
