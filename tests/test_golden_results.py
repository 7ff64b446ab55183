"""Golden-result regression tests: same-seed bit-identity of both engines.

The fixtures in ``tests/golden/engine_results.json`` were generated from
the *pre-path-cache* engines (see ``tests/golden/regen.py``). Every cell
must reproduce them exactly — not approximately — on the current engines:
the path-cache arena, the monotone-merge event loop, the vectorized slot
kernels and any future hot-path work are only admissible if the RNG draw
order, event ordering and floating-point accumulation order all stay
observably unchanged. A single ulp of drift fails these tests.
"""

import json
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "golden"))
from regen import FLOAT_FIELDS, build_calibration, build_cases  # noqa: E402

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "engine_results.json")
CALIBRATION_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "calibration.json"
)


@pytest.fixture(scope="module")
def fresh():
    """All golden cells re-simulated on the current engines."""
    return build_cases()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _cell_names():
    with open(GOLDEN_PATH) as fh:
        return sorted(json.load(fh))


@pytest.mark.parametrize("name", _cell_names())
def test_cell_bit_identical(name, golden, fresh):
    """Every recorded field matches exactly (ints, float bit patterns, and
    the utilization checksum where tracked)."""
    want, got = golden[name], fresh[name]
    assert set(got) == set(want), f"{name}: recorded field set changed"
    for field, w in want.items():
        assert got[field] == w, (
            f"{name}.{field}: expected {w}, got {got[field]} "
            f"(bit-level drift)"
        )


def test_calibration_bit_identical():
    """The ``rho -> node_rate`` calibration and saturated mask of every
    generic-solver scenario match their pins exactly. Engine cells pass
    ``node_rate`` explicitly, so only these pin the traffic solver."""
    with open(CALIBRATION_PATH) as fh:
        want = json.load(fh)
    got = build_calibration()
    assert sorted(got) == sorted(want)
    scenarios = {name.split("_")[0] for name in want}
    assert scenarios == {"hotspot", "transpose", "geometric", "torus",
                         "bitreversal", "single"}
    for name, cell in want.items():
        assert got[name] == cell, f"{name}: calibration drift"


def test_fixture_covers_all_five_engines(golden):
    """The acceptance scenarios are pinned for every engine, including
    the PR-3-ported rushed and PS simulators, the finite-buffer loss
    engine (both the buffer_size=None fifo-identity cells and nonzero
    drop cells) and the declarative facade path (the api_* cells)."""
    names = set(golden)
    for required in (
        "event_uniform_det",
        "event_hotspot",
        "slotted_uniform",
        "slotted_hotspot",
        "slotted_maxima",
        "rushed_uniform",
        "rushed_peredge_service",
        "rushed_sat_maxima",
        "ps_uniform",
        "ps_hotspot",
        "ps_peredge_service",
        "finite_none_uniform",
        "finite_none_exp",
        "finite_uniform_k0",
        "finite_hotspot_k1",
        "finite_peredge_k1",
        "finite_sat_k1",
        "finite_exp_k2",
        "api_fifo_uniform",
        "api_rushed_uniform",
        "api_ps_hotspot",
        "api_slotted_uniform",
        "api_finite_hotspot_k1",
    ):
        assert required in names


def test_api_cells_match_direct_cells(golden):
    """The declarative facade (CellSpec -> registry -> ReplicationEngine)
    is a pure dispatch layer: a cell reached through it is bit-identical
    to the same cell built by hand (same constructor args, same seed)."""
    for api, direct in (
        ("api_fifo_uniform", "event_uniform_det"),
        ("api_rushed_uniform", "rushed_uniform"),
        ("api_ps_hotspot", "ps_hotspot"),
        ("api_slotted_uniform", "slotted_uniform"),
        ("api_finite_hotspot_k1", "finite_hotspot_k1"),
    ):
        assert golden[api] == golden[direct], (api, direct)


def test_finite_none_cells_match_fifo_cells(golden):
    """The finite engine with buffer_size=None is the FIFO engine,
    bit-for-bit: the finite_none_* cells use the exact constructor args
    of their event_* twins and must encode identically (in particular,
    no drop fields appear — node_drops is None on the delegated path)."""
    for fin, fifo in (
        ("finite_none_uniform", "event_uniform_det"),
        ("finite_none_exp", "event_uniform_exp"),
    ):
        assert "dropped" not in golden[fin], fin
        assert golden[fin] == golden[fifo], (fin, fifo)


def test_finite_cells_pin_nonzero_drops(golden):
    """At least two scenarios (uniform and hotspot) pin nonzero drop
    counts, and every finite cell conserves packets:
    completed + dropped == generated."""
    droppers = ("finite_uniform_k0", "finite_hotspot_k1",
                "finite_peredge_k1", "finite_sat_k1", "finite_exp_k2")
    for name in droppers:
        cell = golden[name]
        assert cell["dropped"] > 0, name
        assert cell["dropped"] == cell["node_drops_sum"], name
        assert cell["completed"] + cell["dropped"] == cell["generated"], name


def test_rushed_options_leave_base_stats_unchanged(golden):
    """rushed_sat_maxima runs the exact workload of rushed_uniform with
    the new tracking options on: every base statistic must match
    bit-for-bit (the options add observers, not behaviour), while the
    tracked fields become real values."""
    base, tracked = golden["rushed_uniform"], golden["rushed_sat_maxima"]
    option_fields = {"mean_remaining_saturated", "max_delay",
                     "max_queue_length"}
    for field, value in base.items():
        if field in option_fields:
            continue
        assert tracked[field] == value, field
    assert base["mean_remaining_saturated"] == "nan"
    assert tracked["mean_remaining_saturated"] != "nan"
    assert base["max_queue_length"] == -1
    assert tracked["max_queue_length"] >= 0
    assert tracked["max_delay"] != "nan"


def test_fixture_floats_are_exact_hex(golden):
    """Fixtures store float bit patterns, not decimal approximations."""
    for name, fields in golden.items():
        for field in FLOAT_FIELDS:
            v = fields[field]
            if v != "nan":
                assert float.fromhex(v) == float.fromhex(v)  # parses
                assert "0x" in v


def test_cached_and_uncached_engines_agree():
    """A SampledPathInterner replays the pre-cache per-packet rebuild and
    must produce the exact same trajectory."""
    from repro.routing.destinations import HotSpotDestinations
    from repro.routing.greedy import GreedyArrayRouter
    from repro.routing.pathcache import SampledPathInterner
    from repro.sim.fifo_network import NetworkSimulation
    from repro.topology.array_mesh import ArrayMesh

    mesh = ArrayMesh(4)
    router = GreedyArrayRouter(mesh)
    dests = HotSpotDestinations(16, hot_node=5, h=0.3)
    runs = [
        NetworkSimulation(
            router, dests, 0.1, seed=3, path_cache=cache
        ).run(10, 120, track_maxima=True)
        for cache in (None, SampledPathInterner(router))
    ]
    a, b = runs
    for field in ("generated", "completed", "zero_hop", "mean_number",
                  "mean_remaining", "mean_delay", "delay_half_width",
                  "max_delay", "max_queue_length"):
        va, vb = getattr(a, field), getattr(b, field)
        assert va == vb or (math.isnan(va) and math.isnan(vb)), field


def test_shared_cache_state_does_not_leak_into_results():
    """A warm shared cache (replication pattern) changes nothing."""
    from repro.routing.destinations import UniformDestinations
    from repro.routing.greedy import GreedyArrayRouter
    from repro.routing.pathcache import path_cache_for
    from repro.sim.fifo_network import NetworkSimulation
    from repro.sim.slotted import SlottedNetworkSimulation
    from repro.topology.array_mesh import ArrayMesh

    mesh = ArrayMesh(4)
    router = GreedyArrayRouter(mesh)
    dests = UniformDestinations(16)
    shared = path_cache_for(router)
    # Warm the cache with a different seed first.
    NetworkSimulation(router, dests, 0.2, seed=99, path_cache=shared).run(5, 60)
    warm = NetworkSimulation(
        router, dests, 0.2, seed=5, path_cache=shared
    ).run(5, 60)
    cold = NetworkSimulation(router, dests, 0.2, seed=5).run(5, 60)
    assert warm.mean_delay == cold.mean_delay
    assert warm.mean_number == cold.mean_number

    SlottedNetworkSimulation(
        router, dests, 0.2, seed=99, path_cache=shared
    ).run(5, 60)
    warm_s = SlottedNetworkSimulation(
        router, dests, 0.2, seed=5, path_cache=shared
    ).run(5, 60)
    cold_s = SlottedNetworkSimulation(router, dests, 0.2, seed=5).run(5, 60)
    assert warm_s.mean_delay == cold_s.mean_delay
    assert warm_s.mean_number == cold_s.mean_number


def test_calendar_queue_matches_heap_queue_exactly(monkeypatch):
    """On the stochastic-service loop's real event stream the calendar
    queue pops exactly the heap's order (the mirror checks every pop),
    and mirroring leaves every output unchanged."""
    from repro.routing.destinations import UniformDestinations
    from repro.routing.greedy import GreedyArrayRouter
    from repro.sim.fifo_network import NetworkSimulation
    from repro.sim.kernels import python_backend
    from repro.topology.array_mesh import ArrayMesh

    from _helpers import patch_heap_event_queue

    mesh = ArrayMesh(4)
    router = GreedyArrayRouter(mesh)
    dests = UniformDestinations(16)

    def run():
        return NetworkSimulation(
            router, dests, 0.25, service="exponential", seed=19
        ).run(10, 150, track_maxima=True, collect_delays=True)

    cal = run()
    with monkeypatch.context() as m:
        built = patch_heap_event_queue(m, python_backend)
        heap = run()
    assert built
    assert cal.mean_number == heap.mean_number
    assert cal.mean_remaining == heap.mean_remaining
    assert cal.mean_delay == heap.mean_delay
    assert cal.max_delay == heap.max_delay
    assert cal.max_queue_length == heap.max_queue_length
    assert cal.delays.tolist() == heap.delays.tolist()


def test_rushed_merge_loop_matches_event_queue_loop_exactly():
    """The rushed engine's monotone-merge loop replays the event-queue
    loop's (time, seq) order exactly (same contract as the FIFO engine)."""
    from repro.routing.destinations import UniformDestinations
    from repro.routing.greedy import GreedyArrayRouter
    from repro.sim.rushed_network import RushedNetworkSimulation
    from repro.topology.array_mesh import ArrayMesh

    mesh = ArrayMesh(4)
    router = GreedyArrayRouter(mesh)
    dests = UniformDestinations(16)

    merge = RushedNetworkSimulation(router, dests, 0.25, seed=11)
    assert merge._uniform_service
    res_merge = merge.run(10, 150)

    forced = RushedNetworkSimulation(router, dests, 0.25, seed=11)
    forced._uniform_service = False  # force the event-queue loop
    res = forced.run(10, 150)

    assert res_merge.mean_number == res.mean_number
    assert res_merge.mean_delay == res.mean_delay
    assert res_merge.delay_half_width == res.delay_half_width
    assert res_merge.utilization.tolist() == res.utilization.tolist()


def test_merge_loop_matches_heap_loop_exactly():
    """The monotone-merge event loop is a pure data-structure swap: forcing
    the same workload through the heap loop reproduces every statistic
    bit-for-bit (same events, same order, same arithmetic)."""
    from repro.routing.destinations import UniformDestinations
    from repro.routing.greedy import GreedyArrayRouter
    from repro.sim.fifo_network import NetworkSimulation
    from repro.topology.array_mesh import ArrayMesh

    mesh = ArrayMesh(4)
    router = GreedyArrayRouter(mesh)
    dests = UniformDestinations(16)

    merge = NetworkSimulation(router, dests, 0.25, seed=11)
    assert merge._uniform_service
    res_merge = merge.run(10, 150, track_maxima=True, collect_delays=True)

    heap = NetworkSimulation(router, dests, 0.25, seed=11)
    heap._uniform_service = False  # force the general heap loop
    res_heap = heap.run(10, 150, track_maxima=True, collect_delays=True)

    assert res_merge.mean_number == res_heap.mean_number
    assert res_merge.mean_remaining == res_heap.mean_remaining
    assert res_merge.mean_delay == res_heap.mean_delay
    assert res_merge.delay_half_width == res_heap.delay_half_width
    assert res_merge.max_delay == res_heap.max_delay
    assert res_merge.max_queue_length == res_heap.max_queue_length
    assert res_merge.delays.tolist() == res_heap.delays.tolist()
