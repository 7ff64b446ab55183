"""Tests for the engine registry and the extracted constructor policy.

Covers the three regression surfaces the registry redesign introduced:

* :class:`repro.sim.enginecommon.EngineCommon` — the shared source-rate /
  fast-id / pinned-CDF policy block, including the load-bearing
  identity-vs-sorted fast-id ordering difference between the slotted and
  event-driven engines, and the boundary-safe source-CDF draw;
* :mod:`repro.sim.registry` — name/alias resolution and the typed
  ``engine_params`` metadata;
* the facade round trip — every registered engine runs end-to-end through
  ``CellSpec -> ReplicationEngine.run`` on a small cell.
"""

import numpy as np
import pytest

from repro.routing.destinations import HotSpotDestinations, UniformDestinations
from repro.routing.greedy import GreedyArrayRouter
from repro.sim.enginecommon import (
    IDENTITY_IDS,
    NO_FAST_IDS,
    SORTED_IDS,
    EngineCommon,
    resolve_saturated_mask,
    resolve_service_rates,
)
from repro.sim.fifo_network import NetworkSimulation
from repro.sim.ps_network import PSNetworkSimulation
from repro.sim.registry import (
    available_engines,
    canonical_engine,
    engine_names,
    get_engine,
)
from repro.sim.replication import CellSpec, ReplicationEngine
from repro.sim.rushed_network import RushedNetworkSimulation
from repro.sim.slotted import SlottedNetworkSimulation
from repro.topology.array_mesh import ArrayMesh


def _mesh(n=4):
    return GreedyArrayRouter(ArrayMesh(n))


class TestFastIdOrdering:
    """Slotted requires the identity source order for its fast-id batch
    draw; the event-driven engines only require sorted order. That
    difference is load-bearing: losing it would either disable the event
    engines' fast path for permuted-but-complete source lists, or
    silently corrupt the slotted compat kernel's replay of the legacy
    stream (where a drawn id *is* the source's index)."""

    PERMUTED = [1, 0] + list(range(2, 16))  # full node set, not identity

    def test_sorted_mode_accepts_permuted_full_set(self):
        c = EngineCommon(
            _mesh(), UniformDestinations(16), 0.2,
            source_nodes=self.PERMUTED, fast_id_order=SORTED_IDS,
        )
        assert c.fast_ids

    def test_identity_mode_rejects_permuted_full_set(self):
        c = EngineCommon(
            _mesh(), UniformDestinations(16), 0.2,
            source_nodes=self.PERMUTED, fast_id_order=IDENTITY_IDS,
        )
        assert not c.fast_ids

    def test_identity_mode_accepts_identity_order(self):
        c = EngineCommon(
            _mesh(), UniformDestinations(16), 0.2,
            source_nodes=list(range(16)), fast_id_order=IDENTITY_IDS,
        )
        assert c.fast_ids

    def test_no_fast_ids_mode(self):
        c = EngineCommon(
            _mesh(), UniformDestinations(16), 0.2, fast_id_order=NO_FAST_IDS
        )
        assert not c.fast_ids

    def test_engines_wire_their_required_order(self):
        """The regression that matters end-to-end: the same permuted
        source list flips _fast_ids between the engine families."""
        router = _mesh()
        dests = UniformDestinations(16)
        fifo = NetworkSimulation(router, dests, 0.2, source_nodes=self.PERMUTED)
        rushed = RushedNetworkSimulation(
            router, dests, 0.2, source_nodes=self.PERMUTED
        )
        slotted = SlottedNetworkSimulation(
            router, dests, 0.2, source_nodes=self.PERMUTED
        )
        assert fifo._fast_ids and rushed._fast_ids
        assert not slotted._fast_ids
        assert SlottedNetworkSimulation(
            router, dests, 0.2, source_nodes=list(range(16))
        )._fast_ids

    def test_non_uniform_dests_disable_fast_ids(self):
        c = EngineCommon(
            _mesh(), HotSpotDestinations(16, hot_node=5, h=0.3), 0.2
        )
        assert not c.fast_ids

    def test_partial_source_set_disables_fast_ids(self):
        c = EngineCommon(
            _mesh(), UniformDestinations(16), 0.2, source_nodes=[0, 1, 2]
        )
        assert not c.fast_ids

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            EngineCommon(
                _mesh(), UniformDestinations(16), 0.2, fast_id_order="best"
            )


class TestSourceCdfBoundary:
    """The pinned source CDF must survive a draw landing exactly on a
    boundary: side='right' search never selects a zero-rate source."""

    def test_boundary_draw_skips_leading_zero_rate_source(self):
        c = EngineCommon(_mesh(2), UniformDestinations(4), [0.0, 1.0, 1.0, 1.0])
        # u = 0.0 is exactly the CDF value of the dead source.
        idx = int(np.searchsorted(c.source_cdf, 0.0, side="right"))
        assert c.node_rates[idx] > 0

    def test_boundary_draw_at_internal_edges(self):
        c = EngineCommon(_mesh(2), UniformDestinations(4), [0.5, 0.0, 0.5, 1.0])
        for u in c.source_cdf[:-1]:  # every internal boundary value
            idx = int(np.searchsorted(c.source_cdf, float(u), side="right"))
            assert c.node_rates[idx] > 0

    def test_top_of_cdf_is_pinned(self):
        c = EngineCommon(_mesh(2), UniformDestinations(4), [1.0, 1.0, 1.0, 0.0])
        assert c.source_cdf[-1] == 1.0
        # The top sliver belongs to the last *positive*-rate source.
        idx = int(np.searchsorted(c.source_cdf, np.nextafter(1.0, 0.0),
                                  side="right"))
        assert c.node_rates[idx] > 0

    def test_every_engine_exposes_the_pinned_cdf(self):
        router = _mesh()
        dests = UniformDestinations(16)
        rates = [0.0] + [0.1] * 15
        for cls in (NetworkSimulation, SlottedNetworkSimulation,
                    RushedNetworkSimulation, PSNetworkSimulation):
            sim = cls(router, dests, rates)
            assert sim._source_cdf[0] == 0.0  # dead source owns no mass
            assert sim._source_cdf[-1] == 1.0


class TestCommonValidation:
    def test_empty_sources_rejected_everywhere(self):
        router = _mesh()
        dests = UniformDestinations(16)
        for cls in (NetworkSimulation, SlottedNetworkSimulation,
                    RushedNetworkSimulation, PSNetworkSimulation):
            with pytest.raises(ValueError):
                cls(router, dests, 0.2, source_nodes=[])

    def test_service_rate_helper(self):
        assert resolve_service_rates(2.0, 3).tolist() == [2.0, 2.0, 2.0]
        with pytest.raises(ValueError):
            resolve_service_rates([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            resolve_service_rates(0.0, 3)

    def test_saturated_mask_helper(self):
        assert resolve_saturated_mask(None, 4) is None
        assert resolve_saturated_mask([True, False, True, False], 4) == [
            True, False, True, False]
        with pytest.raises(ValueError):
            resolve_saturated_mask([True], 4)


class TestRegistryLookup:
    def test_five_engines_registered(self):
        assert engine_names() == ["fifo", "finite", "ps", "rushed", "slotted"]

    def test_event_alias_resolves_to_fifo(self):
        assert canonical_engine("event") == "fifo"
        assert get_engine("event") is get_engine("fifo")

    def test_unknown_engine_lists_known_names(self):
        with pytest.raises(ValueError, match="fifo"):
            canonical_engine("quantum")

    def test_metadata_shape(self):
        for e in available_engines():
            assert e.description
            assert "deterministic" in e.services
            for p in e.params:
                assert p.doc and p.describe().startswith(p.name + "=")

    def test_param_validation(self):
        fifo = get_engine("fifo")
        fifo.validate_params({"backend": "numpy", "service_rates": 2.0})
        fifo.validate_params({"service_rates": (1.0, 2.0)})
        with pytest.raises(ValueError):
            fifo.validate_params({"backend": "mlx"})
        with pytest.raises(ValueError):
            fifo.validate_params({"turbo": True})
        finite = get_engine("finite")
        finite.validate_params({"buffer_size": 0})
        with pytest.raises(ValueError):
            finite.validate_params({"buffer_size": "yes"})


class TestSpecEngineParams:
    def test_unknown_engine_param_raises_at_spec_time(self):
        with pytest.raises(ValueError):
            CellSpec(rho=0.5, engine="fifo", engine_params=(("turbo", 1),))

    def test_ill_typed_engine_param_raises_at_spec_time(self):
        with pytest.raises(ValueError):
            CellSpec(rho=0.5, engine="finite",
                     engine_params=(("buffer_size", "yes"),))

    @pytest.mark.parametrize("engine, param, value", [
        ("fifo", "event_queue", "heap"),
        ("finite", "event_queue", "heap"),
        ("rushed", "event_queue", "heap"),
        ("ps", "event_queue", "heap"),
        ("slotted", "batch_rng", False),
    ])
    def test_retired_engine_param_raises_at_spec_time(
        self, engine, param, value
    ):
        """Specs written for the retired event_queue / batch_rng knobs fail
        at construction, naming the param and listing the valid ones."""
        with pytest.raises(ValueError) as exc_info:
            CellSpec(node_rate=0.1, engine=engine,
                     engine_params=((param, value),))
        msg = str(exc_info.value)
        assert repr(param) in msg
        assert "valid params" in msg
        for valid in get_engine(engine).params:
            assert valid.name in msg

    def test_duplicate_engine_params_rejected(self):
        with pytest.raises(ValueError):
            CellSpec(rho=0.5, engine="fifo",
                     engine_params=(("service_rates", 1.0),
                                    ("service_rates", 2.0)))

    def test_engine_canonicalised(self):
        assert CellSpec(rho=0.5, engine="event").engine == "fifo"

    def test_unsupported_service_rejected(self):
        for engine in ("slotted", "rushed", "ps"):
            with pytest.raises(ValueError):
                CellSpec(rho=0.5, engine=engine, service="exponential")

    def test_unsupported_tracking_rejected(self):
        # Only PS still lacks the tracking options: the rushed engine
        # gained saturated_mask/track_maxima with the capability-parity
        # work, so its flags now accept both.
        with pytest.raises(ValueError):
            CellSpec(rho=0.5, engine="ps", track_saturated=True)
        with pytest.raises(ValueError):
            CellSpec(rho=0.5, engine="ps", track_maxima=True)
        CellSpec(rho=0.5, engine="rushed", track_saturated=True,
                 track_maxima=True)

    def test_rho_with_rescaled_service_rates_rejected(self):
        """Both rho calibrations assume unit service rates; a rescaled
        phi must force an explicit node_rate instead of silently making
        "rho" mean a different load."""
        with pytest.raises(ValueError, match="unit service rates"):
            CellSpec(rho=0.9, engine="fifo",
                     engine_params=(("service_rates", 0.5),))
        with pytest.raises(ValueError, match="unit service rates"):
            CellSpec(rho=0.9, engine="ps",
                     engine_params=(("service_rates", (2.0, 2.0)),))
        # Unit rates are the calibration's assumption: allowed with rho.
        CellSpec(rho=0.9, engine="fifo",
                 engine_params=(("service_rates", 1.0),))
        # An explicit node_rate carries no calibration claim: allowed.
        CellSpec(node_rate=0.2, engine="fifo",
                 engine_params=(("service_rates", 0.5),))

    def test_with_engine_params_merges(self):
        spec = CellSpec(node_rate=0.2, engine="fifo",
                        engine_params=(("backend", "numpy"),))
        spec2 = spec.with_engine_params(service_rates=2.0)
        assert spec2.engine_params_dict == {
            "backend": "numpy", "service_rates": 2.0}
        assert spec.engine_params_dict == {"backend": "numpy"}


class TestRegistryRoundTrip:
    """Every registered engine must round-trip through the declarative
    facade on a small cell: CellSpec -> registry -> ReplicationEngine."""

    @pytest.mark.parametrize("engine", ["fifo", "slotted", "rushed", "ps"])
    def test_engine_round_trips_through_cellspec(self, engine):
        spec = CellSpec(
            scenario="uniform", n=4, rho=0.5, engine=engine,
            warmup=20, horizon=200, seeds=(1, 2),
        )
        pooled = ReplicationEngine(processes=1).run(spec)
        assert pooled.spec.engine == engine
        assert len(pooled.replications) == 2
        assert pooled.mean_delay > 0
        assert all(r.completed == r.generated for r in pooled.replications)
        assert [r.seed for r in pooled.replications] == [1, 2]

    def test_engine_params_flow_through_run(self):
        """Engine params reach the simulator: doubled fifo service rates
        shorten the delay, and the slotted backend knob switches to the
        numpy kernel (a different draw stream)."""
        base = dict(scenario="uniform", n=4, node_rate=0.1,
                    service="exponential", warmup=20, horizon=200,
                    seeds=(3,))
        unit = ReplicationEngine(processes=1).run(CellSpec(**base))
        fast = ReplicationEngine(processes=1).run(
            CellSpec(**base, engine_params=(("service_rates", 2.0),))
        )
        assert fast.mean_delay < unit.mean_delay
        s = dict(scenario="uniform", n=4, rho=0.5, engine="slotted",
                 warmup=20, horizon=200, seeds=(3,))
        python = ReplicationEngine(processes=1).run(CellSpec(**s))
        numpy = ReplicationEngine(processes=1).run(
            CellSpec(**s, engine_params=(("backend", "numpy"),))
        )
        assert python.generated != numpy.generated or (
            python.mean_delay != numpy.mean_delay
        )

    def test_mixed_engine_batch_does_not_cross_engines(self):
        """run_many over all four engines at once: the memo key includes
        the engine name + engine_params, so each cell's result matches
        the same cell run alone."""
        specs = [
            CellSpec(scenario="uniform", n=4, rho=0.5, engine=e,
                     warmup=20, horizon=200, seeds=(5,))
            for e in ("fifo", "slotted", "rushed", "ps")
        ]
        eng = ReplicationEngine(processes=1)
        batch = eng.run_many(specs)
        for spec, pooled in zip(specs, batch):
            alone = ReplicationEngine(processes=1).run(spec)
            assert pooled.mean_delay == alone.mean_delay, spec.engine
            assert pooled.mean_number == alone.mean_number, spec.engine
