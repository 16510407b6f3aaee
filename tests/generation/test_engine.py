"""Tests for the chunked, vectorized, parallel generation engine.

The engine's contract has three legs, each pinned here:

1. *Equivalence*: the vectorized/chunked path reproduces the reference
   per-flow loop's ``RateSeries`` bit-for-bit for the same seed, for
   every shot family.
2. *Determinism*: output never depends on ``workers`` or ``chunk``, in
   both compat and streamed sampling modes.
3. *Bitwise invariance for every shot*: no shot family takes a shortcut
   that trades bits for speed — the rectangular shot stays bitwise equal
   to the reference in compat mode and bitwise chunk/worker-invariant in
   streamed mode.
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
from repro.generation import (
    DEFAULT_ARRIVAL_CELL,
    GenerationEngine,
    reference_rate_series,
)

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


class TestReferenceEquivalence:
    """Engine output == seed implementation output, bit for bit."""

    @pytest.mark.parametrize("shot", SHOT_FAMILIES, ids=lambda s: s.name)
    def test_bit_for_bit_per_shot_family(self, small_ensemble, shot):
        ref = reference_rate_series(
            40.0, small_ensemble, shot, duration=90.0, delta=0.2, rng=3
        )
        out = GenerationEngine().rate_series(
            40.0, small_ensemble, shot, duration=90.0, delta=0.2, rng=3
        )
        np.testing.assert_array_equal(ref.values, out.values)
        assert out.delta == ref.delta

    @pytest.mark.parametrize("chunk", [0.2, 3.7, 10.0, 60.0, None])
    def test_bit_for_bit_any_chunk(self, small_ensemble, chunk):
        ref = reference_rate_series(
            40.0, small_ensemble, TriangularShot(), duration=60.0, delta=0.2,
            rng=11,
        )
        out = GenerationEngine(chunk=chunk, workers=1).rate_series(
            40.0, small_ensemble, TriangularShot(), duration=60.0, delta=0.2,
            rng=11,
        )
        np.testing.assert_array_equal(ref.values, out.values)

    def test_explicit_warmup_and_generator_rng(self, small_ensemble):
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        ref = reference_rate_series(
            40.0, small_ensemble, ParabolicShot(), duration=45.0, delta=0.5,
            warmup=2.0, rng=rng_a,
        )
        out = GenerationEngine(chunk=4.0).rate_series(
            40.0, small_ensemble, ParabolicShot(), duration=45.0, delta=0.5,
            warmup=2.0, rng=rng_b,
        )
        np.testing.assert_array_equal(ref.values, out.values)

    def test_validation_matches_reference(self, small_ensemble):
        with pytest.raises(ParameterError):
            GenerationEngine().rate_series(
                40.0, small_ensemble, TriangularShot(), duration=1.0, delta=2.0
            )
        with pytest.raises(ParameterError):
            GenerationEngine().rate_series(
                1e-9, small_ensemble, TriangularShot(), duration=0.1,
                delta=0.05, warmup=0.0, rng=5,
            )


class TestDeterminism:
    """Same seed => same output, whatever the execution geometry."""

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("chunk", [1.1, 7.0, None])
    def test_compat_invariant_to_geometry(self, small_ensemble, chunk, workers):
        base = GenerationEngine().rate_series(
            40.0, small_ensemble, TriangularShot(), duration=60.0, delta=0.2,
            rng=21,
        )
        out = GenerationEngine(chunk=chunk, workers=workers).rate_series(
            40.0, small_ensemble, TriangularShot(), duration=60.0, delta=0.2,
            rng=21,
        )
        np.testing.assert_array_equal(base.values, out.values)

    @pytest.mark.parametrize(
        "shot", [TriangularShot(), RectangularShot()], ids=lambda s: s.name
    )
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("chunk", [2.3, 15.0, None])
    def test_streamed_invariant_to_geometry(
        self, small_ensemble, chunk, workers, shot
    ):
        base = GenerationEngine(chunk=6.0, workers=1).rate_series_streamed(
            40.0, small_ensemble, shot, 60.0, 0.2, seed=8
        )
        out = GenerationEngine(chunk=chunk, workers=workers).rate_series_streamed(
            40.0, small_ensemble, shot, 60.0, 0.2, seed=8
        )
        np.testing.assert_array_equal(base.values, out.values)

    def test_streamed_depends_on_seed_and_cell(self, small_ensemble):
        kwargs = dict(duration=60.0, delta=0.2)
        a = GenerationEngine().rate_series_streamed(
            40.0, small_ensemble, TriangularShot(), seed=1, **kwargs
        )
        b = GenerationEngine().rate_series_streamed(
            40.0, small_ensemble, TriangularShot(), seed=2, **kwargs
        )
        c = GenerationEngine(arrival_cell=16.0).rate_series_streamed(
            40.0, small_ensemble, TriangularShot(), seed=1, **kwargs
        )
        assert not np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_streamed_statistics_match_model(self, small_ensemble):
        series = GenerationEngine(chunk=10.0).rate_series_streamed(
            50.0, small_ensemble, TriangularShot(), 300.0, 0.2, seed=4
        )
        expected_mean = 50.0 * small_ensemble.mean_size
        assert series.mean == pytest.approx(expected_mean, rel=0.05)


class TestRectangularFastPath:
    """The rectangular shot has no closed-form shortcut: it runs the same
    exact scatter as every other shot."""

    def test_compat_default_stays_bitwise_for_rectangles(self, small_ensemble):
        """Constant-rate flows stay bit-for-bit equal to the reference."""
        ref = reference_rate_series(
            40.0, small_ensemble, RectangularShot(), duration=60.0, delta=0.2,
            rng=17,
        )
        out = GenerationEngine(chunk=3.0).rate_series(
            40.0, small_ensemble, RectangularShot(), duration=60.0, delta=0.2,
            rng=17,
        )
        np.testing.assert_array_equal(ref.values, out.values)


class TestPacketPaths:
    def test_chunked_packet_trace_identical(self, small_ensemble):
        base = GenerationEngine().packet_trace(
            40.0, small_ensemble, TriangularShot(), duration=45.0,
            link_capacity=1e8, rng=6,
        )
        for chunk in (4.0, 13.0):
            out = GenerationEngine(chunk=chunk).packet_trace(
                40.0, small_ensemble, TriangularShot(), duration=45.0,
                link_capacity=1e8, rng=6,
            )
            np.testing.assert_array_equal(base.packets, out.packets)
        assert base.is_sorted()


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
        with pytest.raises(ParameterError):
            GenerationEngine(arrival_cell=0.0)

    def test_integral_float_workers_coerced(self):
        execution = GenerationEngine(workers=2.0).execution
        assert execution.workers == 2
        assert isinstance(execution.workers, int)

    def test_keywords(self):
        policy = RetryPolicy(max_retries=1)
        engine = GenerationEngine(chunk=3.0, workers=2, retry=policy)
        assert engine.chunk == 3.0
        assert engine.execution == ExecutionSpec(workers=2, retry=policy)
        assert engine.arrival_cell == DEFAULT_ARRIVAL_CELL
