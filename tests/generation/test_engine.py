"""Tests for the chunked, vectorized, parallel generation engine.

The engine's contract has three legs, each pinned here:

1. *Equivalence*: the vectorized/chunked path reproduces the reference
   per-flow loop's ``RateSeries`` bit-for-bit on the flows the arrival
   cells draw, for every shot family.
2. *Determinism*: output never depends on ``workers`` or ``chunk``, on
   the rate path and the packet path alike.
3. *Bitwise invariance for every shot*: no shot family takes a shortcut
   that trades bits for speed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    EmpiricalEnsemble,
    GenericShot,
    ParabolicShot,
    PowerShot,
    RectangularShot,
    TriangularShot,
)
from repro.exceptions import ParameterError
from repro.execution import ExecutionSpec, RetryPolicy
from repro.generation import GenerationEngine, reference_rate_series
from repro.generation.engine import _CellSampler

SHOT_FAMILIES = [
    RectangularShot(),
    TriangularShot(),
    ParabolicShot(),
    PowerShot(0.7),
    GenericShot(lambda v: np.sqrt(v + 0.01), name="sqrt"),
]


@pytest.fixture(scope="module")
def small_ensemble():
    gen = np.random.default_rng(99)
    n = 2000
    sizes = gen.pareto(2.2, n) * 8000.0 + 3000.0
    rates = gen.lognormal(np.log(2e4), 0.5, n)
    return EmpiricalEnsemble(sizes, sizes / rates)


def _reference(arrival_rate, ensemble, shot, duration, delta, *,
               warmup=None, seed):
    """The oracle loop fed every arrival cell's flows, in cell order."""
    sampler = _CellSampler(arrival_rate, ensemble, duration, warmup, seed)
    blocks = [block for block, _ in sampler.cells_before(np.inf)]
    starts, sizes, durations = (np.concatenate(col) for col in zip(*blocks))
    return reference_rate_series(starts, sizes, durations, shot, duration, delta)


class TestReferenceEquivalence:
    """Engine output == the per-flow loop's output, bit for bit."""

    # 150 s plus the warm-up spans three 64 s arrival cells
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("chunk", [0.2, 3.7, 10.0, 60.0, None])
    @pytest.mark.parametrize("shot", SHOT_FAMILIES, ids=lambda s: s.name)
    def test_bit_for_bit(self, small_ensemble, shot, chunk, workers, seed):
        ref = _reference(
            40.0, small_ensemble, shot, 150.0, 0.2, seed=seed
        )
        out = GenerationEngine(chunk=chunk, workers=workers).rate_series(
            40.0, small_ensemble, shot, 150.0, 0.2, seed=seed
        )
        np.testing.assert_array_equal(ref.values, out.values)
        assert out.delta == ref.delta

    def test_explicit_warmup(self, small_ensemble):
        ref = _reference(
            40.0, small_ensemble, ParabolicShot(), 140.0, 0.5,
            warmup=2.0, seed=5,
        )
        out = GenerationEngine(chunk=4.0).rate_series(
            40.0, small_ensemble, ParabolicShot(), 140.0, 0.5,
            warmup=2.0, seed=5,
        )
        np.testing.assert_array_equal(ref.values, out.values)

    def test_validation_matches_reference(self, small_ensemble):
        with pytest.raises(ParameterError):
            GenerationEngine().rate_series(
                40.0, small_ensemble, TriangularShot(), duration=1.0, delta=2.0
            )
        with pytest.raises(ParameterError):
            reference_rate_series(
                [], [], [], TriangularShot(), duration=1.0, delta=2.0
            )
        with pytest.raises(ParameterError):
            GenerationEngine().rate_series(
                1e-9, small_ensemble, TriangularShot(), duration=0.1,
                delta=0.05, warmup=0.0, seed=5,
            )


class TestDeterminism:
    """Same seed => same output, whatever the execution geometry."""

    def test_depends_on_seed_and_cell(self, small_ensemble, monkeypatch):
        kwargs = dict(duration=60.0, delta=0.2)
        a = GenerationEngine().rate_series(
            40.0, small_ensemble, TriangularShot(), seed=1, **kwargs
        )
        b = GenerationEngine().rate_series(
            40.0, small_ensemble, TriangularShot(), seed=2, **kwargs
        )
        monkeypatch.setattr("repro.generation.engine.ARRIVAL_CELL", 16.0)
        c = GenerationEngine().rate_series(
            40.0, small_ensemble, TriangularShot(), seed=1, **kwargs
        )
        assert not np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_seed_sequence_is_a_seed(self, small_ensemble):
        kwargs = dict(duration=60.0, delta=0.2)
        a = GenerationEngine().rate_series(
            40.0, small_ensemble, TriangularShot(), seed=7, **kwargs
        )
        b = GenerationEngine().rate_series(
            40.0, small_ensemble, TriangularShot(),
            seed=np.random.SeedSequence(7), **kwargs
        )
        np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("seed", [-1, 1.5, "abc", None])
    def test_bad_seed_is_a_parameter_error(self, small_ensemble, seed):
        engine = GenerationEngine()
        with pytest.raises(ParameterError, match="seed must be"):
            engine.rate_series(
                40.0, small_ensemble, TriangularShot(), 60.0, 0.2, seed=seed
            )
        with pytest.raises(ParameterError, match="seed must be"):
            engine.packet_trace(
                40.0, small_ensemble, TriangularShot(), 60.0, seed=seed
            )

    def test_statistics_match_model(self, small_ensemble):
        series = GenerationEngine(chunk=10.0).rate_series(
            50.0, small_ensemble, TriangularShot(), 300.0, 0.2, seed=4
        )
        expected_mean = 50.0 * small_ensemble.mean_size
        assert series.mean == pytest.approx(expected_mean, rel=0.05)


class TestPacketPaths:
    @pytest.fixture(scope="class")
    def base(self, small_ensemble):
        return GenerationEngine().packet_trace(
            40.0, small_ensemble, TriangularShot(), duration=150.0,
            link_capacity=1e8, seed=6,
        )

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("chunk", [4.0, 13.0, None])
    def test_invariant_to_geometry(self, small_ensemble, base, chunk, workers):
        out = GenerationEngine(chunk=chunk, workers=workers).packet_trace(
            40.0, small_ensemble, TriangularShot(), duration=150.0,
            link_capacity=1e8, seed=6,
        )
        assert out.packets.tobytes() == base.packets.tobytes()

    def test_sorted_and_seeded(self, small_ensemble, base):
        other = GenerationEngine().packet_trace(
            40.0, small_ensemble, TriangularShot(), duration=150.0,
            link_capacity=1e8, seed=7,
        )
        assert base.is_sorted()
        assert other.is_sorted()
        assert base.packets.tobytes() != other.packets.tobytes()


class TestEngineKeywords:
    def test_validation(self):
        with pytest.raises(ParameterError):
            GenerationEngine(chunk=-1.0)
        with pytest.raises(ParameterError):
            GenerationEngine(workers=0)
        with pytest.raises(ParameterError):
            GenerationEngine(workers=2.5)
        with pytest.raises(ParameterError):
            GenerationEngine(backend="forkserver")

    def test_integral_float_workers_coerced(self):
        execution = GenerationEngine(workers=2.0).execution
        assert execution.workers == 2
        assert isinstance(execution.workers, int)

    def test_keywords(self):
        policy = RetryPolicy(max_retries=1)
        engine = GenerationEngine(chunk=3.0, workers=2, retry=policy)
        assert engine.chunk == 3.0
        assert engine.execution == ExecutionSpec(workers=2, retry=policy)
