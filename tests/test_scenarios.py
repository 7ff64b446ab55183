"""Tests for the scenario registry and its load calibration."""

import numpy as np
import pytest

from repro.core.rates import edge_rates_from_routing, lambda_for_load
from repro.scenarios import (
    Scenario,
    available_scenarios,
    build_network,
    get_scenario,
    register,
    resolve_cell,
)
from repro.sim.replication import CellSpec


class TestRegistry:
    def test_builtins_present(self):
        names = {s.name for s in available_scenarios()}
        assert {
            "uniform",
            "randomized",
            "hotspot",
            "transpose",
            "bitreversal",
            "geometric",
            "torus",
        } <= names

    def test_unknown_scenario_names_known_ones(self):
        with pytest.raises(ValueError, match="uniform"):
            get_scenario("frobnicate")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register(Scenario("uniform", "dup", lambda n: None))

    def test_listing_is_sorted(self):
        names = [s.name for s in available_scenarios()]
        assert names == sorted(names)


class TestBuildNetwork:
    @pytest.mark.parametrize(
        "name,n,nodes",
        [
            ("uniform", 4, 16),
            ("randomized", 4, 16),
            ("hotspot", 4, 16),
            ("transpose", 4, 16),
            ("geometric", 4, 16),
            ("torus", 4, 16),
            ("bitreversal", 3, 8),  # n is the hypercube dimension
        ],
    )
    def test_destinations_cover_topology(self, name, n, nodes):
        net = build_network(name, n)
        assert net.destinations.num_nodes == nodes
        assert net.router.topology.num_nodes == nodes
        pmf = net.destinations.pmf(0)
        assert pmf.shape == (nodes,)
        assert np.isclose(pmf.sum(), 1.0)

    def test_hotspot_params_forwarded(self):
        net = build_network("hotspot", 4, h=0.5, hot_node=3)
        assert net.destinations.h == 0.5
        assert net.destinations.hot_node == 3

    def test_hotspot_defaults_to_center(self):
        net = build_network("hotspot", 5)
        assert net.destinations.hot_node == 12  # (2, 2) on the 5x5 mesh


class TestCalibration:
    def test_uniform_honours_conventions(self):
        for convention in ("exact", "table1"):
            spec = CellSpec(
                scenario="uniform", n=5, rho=0.8, convention=convention
            )
            rate, mask = resolve_cell(spec)
            assert rate == lambda_for_load(5, 0.8, convention)
            assert mask is None

    def test_generic_calibration_hits_target_load(self):
        """Non-standard workloads: max edge load equals rho exactly."""
        for name in ("hotspot", "transpose", "geometric", "torus"):
            spec = CellSpec(scenario=name, n=4, rho=0.7)
            rate, _ = resolve_cell(spec)
            net = build_network(name, 4)
            rates = edge_rates_from_routing(net.router, net.destinations, rate)
            assert rates.max() == pytest.approx(0.7, rel=1e-12), name

    def test_explicit_node_rate_wins(self):
        spec = CellSpec(scenario="uniform", n=4, rho=0.9, node_rate=0.01)
        rate, _ = resolve_cell(spec)
        assert rate == 0.01

    def test_saturated_mask_matches_closed_form(self):
        from repro.core.rates import array_edge_rates
        from repro.core.saturation import saturated_edge_mask
        from repro.topology.array_mesh import ArrayMesh

        spec = CellSpec(
            scenario="uniform", n=5, rho=0.9, convention="table1",
            track_saturated=True,
        )
        rate, mask = resolve_cell(spec)
        expect = saturated_edge_mask(array_edge_rates(ArrayMesh(5), rate))
        assert np.array_equal(mask, expect)

    def test_hotspot_saturates_near_hot_node(self):
        spec = CellSpec(
            scenario="hotspot", n=4, rho=0.7, track_saturated=True,
            params=(("h", 0.6),),
        )
        _, mask = resolve_cell(spec)
        net = build_network("hotspot", 4, h=0.6)
        hot = net.destinations.hot_node
        # Every saturated edge points at the hot node (its in-edges are
        # the bottleneck under heavy hot-spot mass).
        heads = {net.router.topology.edge_endpoints(e)[1] for e in np.where(mask)[0]}
        assert hot in heads

    @pytest.mark.parametrize(
        "name, n",
        [("hotspot", 6), ("geometric", 5), ("transpose", 6), ("torus", 5),
         ("bitreversal", 4)],
    )
    def test_calibration_routes_in_closed_form(self, name, n, monkeypatch):
        """Generic calibration of the greedy mesh, torus and hypercube
        workloads never walks a per-pair ``path``."""
        from repro.routing.greedy import GreedyArrayRouter
        from repro.routing.hypercube_greedy import GreedyHypercubeRouter
        from repro.routing.torus_greedy import GreedyTorusRouter

        def no_path(self, src, dst):
            raise AssertionError(f"{type(self).__name__}.path called")

        for cls in (GreedyArrayRouter, GreedyHypercubeRouter, GreedyTorusRouter):
            monkeypatch.setattr(cls, "path", no_path)
        rate, mask = resolve_cell(
            CellSpec(scenario=name, n=n, rho=0.8, track_saturated=True)
        )
        assert rate > 0 and mask.any()
