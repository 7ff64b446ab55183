"""Tests for the batched sampling APIs (destination ``sample_batch`` and
the engines' blocked RNG draws).

Satellite contract: every destination law's ``sample_batch`` agrees with
repeated scalar ``sample`` calls in distribution, and laws flagged
``batch_stream_identical`` reproduce the scalar draws *bit-exactly* from
the same RNG state. The pmf view stays the single source of truth: both
scalar and batch empirical frequencies are checked against it.
"""

import numpy as np
import pytest

from repro.routing.destinations import (
    GeometricStopDestinations,
    HotSpotDestinations,
    MatrixDestinations,
    PBiasedHypercubeDestinations,
    PermutationDestinations,
    UniformDestinations,
)
from repro.topology.array_mesh import ArrayMesh
from repro.topology.hypercube import Hypercube


def _laws():
    mesh = ArrayMesh(5)
    cube = Hypercube(4)
    rng = np.random.default_rng(123)
    p = rng.random((25, 25))
    p /= p.sum(axis=1, keepdims=True)
    return {
        "uniform": UniformDestinations(25),
        "matrix": MatrixDestinations(p),
        "pbiased": PBiasedHypercubeDestinations(cube, 0.3),
        "geometric": GeometricStopDestinations(mesh, stop=0.5),
        "hotspot": HotSpotDestinations(25, hot_node=7, h=0.3),
        "transpose": PermutationDestinations.transpose(mesh),
    }


LAWS = _laws()
STREAM_IDENTICAL = {"uniform", "matrix", "pbiased", "transpose"}


@pytest.mark.parametrize("name", sorted(LAWS))
def test_batch_matches_scalar_in_distribution(name):
    """Empirical batch frequencies match the exact pmf (and therefore the
    scalar sampler, which is pinned to the pmf by the existing tests)."""
    law = LAWS[name]
    src = 7 % law.num_nodes
    rng = np.random.default_rng(99)
    draws = law.sample_batch(np.full(60000, src, dtype=np.int64), rng)
    emp = np.bincount(np.asarray(draws), minlength=law.num_nodes) / len(draws)
    assert np.abs(emp - law.pmf(src)).max() < 0.01


@pytest.mark.parametrize("name", sorted(LAWS))
def test_batch_respects_per_source_laws(name):
    """Mixed-source batches draw each packet from its own source's law."""
    law = LAWS[name]
    n = law.num_nodes
    rng = np.random.default_rng(5)
    srcs = np.array([1, n - 2] * 30000, dtype=np.int64)
    draws = np.asarray(law.sample_batch(srcs, rng))
    for src in (1, n - 2):
        sel = draws[srcs == src]
        emp = np.bincount(sel, minlength=n) / len(sel)
        assert np.abs(emp - law.pmf(src)).max() < 0.012, src


@pytest.mark.parametrize("name", sorted(STREAM_IDENTICAL))
def test_flagged_laws_are_bit_identical_to_scalar_draws(name):
    """batch_stream_identical means: same RNG state in, same destinations
    out, same RNG state after — the engines rely on this to vectorize
    without breaking the same-seed contract."""
    law = LAWS[name]
    assert law.batch_stream_identical
    rng = np.random.default_rng(17)
    srcs = rng.integers(0, law.num_nodes, size=500)
    a = np.random.default_rng(42)
    b = np.random.default_rng(42)
    scalar = [law.sample(int(s), a) for s in srcs.tolist()]
    batch = np.asarray(law.sample_batch(srcs, b)).tolist()
    assert scalar == batch
    assert a.random() == b.random()  # streams advanced identically


@pytest.mark.parametrize("name", sorted(set(LAWS) - STREAM_IDENTICAL))
def test_unflagged_laws_declare_themselves(name):
    """Laws with data-dependent draw counts must not claim stream
    identity (the engines would silently break bit-compatibility)."""
    assert LAWS[name].batch_stream_identical is False


def test_permutation_batch_consumes_no_rng():
    law = LAWS["transpose"]
    a = np.random.default_rng(3)
    before = a.bit_generator.state["state"]["state"]
    law.sample_batch(np.arange(25), a)
    assert a.bit_generator.state["state"]["state"] == before


def test_empty_batch_is_valid():
    for name, law in LAWS.items():
        rng = np.random.default_rng(0)
        out = law.sample_batch(np.empty(0, dtype=np.int64), rng)
        assert len(out) == 0, name


def test_blocked_poisson_is_stream_identical_to_scalar():
    """The slotted engine's _BLOCK-disciplined Poisson counts are the same
    draws the per-slot scalar calls would make (NumPy array fills are
    sequential), so blocking changes only call overhead, never values."""
    lam = 13.7
    a = np.random.default_rng(8)
    b = np.random.default_rng(8)
    scalar = [int(a.poisson(lam)) for _ in range(300)]
    blocked = b.poisson(lam, size=300).tolist()
    assert scalar == blocked


def test_blocked_bounded_integers_are_stream_identical_to_scalar():
    """Same property for the engines' id blocks (event fast path, slotted
    pair kernel): one 2k draw equals 2k scalar draws."""
    a = np.random.default_rng(4)
    b = np.random.default_rng(4)
    scalar = [int(a.integers(1024)) for _ in range(200)]
    blocked = b.integers(0, 1024, size=200).tolist()
    assert scalar == blocked
