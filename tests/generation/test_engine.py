"""Tests for the chunked, vectorized, parallel generation engine.

The engine's contract has three legs, each pinned here:

1. *Equivalence*: the vectorized/chunked path reproduces the reference
   per-flow loop's ``RateSeries`` bit-for-bit for the same seed, for
   every shot family.
2. *Determinism*: output never depends on ``workers`` or (for the exact
   scatter path, bitwise) on ``chunk``, in both compat and streamed
   sampling modes.
3. *Exactness of the shortcuts*: the rectangular closed-form fast path
   and the streamed packet writer agree with their general counterparts.
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
from repro.generation import (
    EngineConfig,
    GenerationEngine,
    generate_packet_trace,
    generate_rate_series,
    reference_rate_series,
)
from repro.generation.engine import _splitmix_uniform
from repro.trace import read_trace

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
        out = generate_rate_series(
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
        out = generate_rate_series(
            40.0, small_ensemble, TriangularShot(), duration=60.0, delta=0.2,
            rng=11, chunk=chunk, workers=1,
        )
        np.testing.assert_array_equal(ref.values, out.values)

    def test_explicit_warmup_and_generator_rng(self, small_ensemble):
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        ref = reference_rate_series(
            40.0, small_ensemble, ParabolicShot(), duration=45.0, delta=0.5,
            warmup=2.0, rng=rng_a,
        )
        out = generate_rate_series(
            40.0, small_ensemble, ParabolicShot(), duration=45.0, delta=0.5,
            warmup=2.0, rng=rng_b, chunk=4.0,
        )
        np.testing.assert_array_equal(ref.values, out.values)

    def test_validation_matches_reference(self, small_ensemble):
        with pytest.raises(ParameterError):
            generate_rate_series(
                40.0, small_ensemble, TriangularShot(), duration=1.0, delta=2.0
            )
        with pytest.raises(ParameterError):
            generate_rate_series(
                1e-9, small_ensemble, TriangularShot(), duration=0.1,
                delta=0.05, warmup=0.0, rng=5,
            )


class TestDeterminism:
    """Same seed => same output, whatever the execution geometry."""

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("chunk", [1.1, 7.0, None])
    def test_compat_invariant_to_geometry(self, small_ensemble, chunk, workers):
        base = generate_rate_series(
            40.0, small_ensemble, TriangularShot(), duration=60.0, delta=0.2,
            rng=21,
        )
        out = generate_rate_series(
            40.0, small_ensemble, TriangularShot(), duration=60.0, delta=0.2,
            rng=21, chunk=chunk, workers=workers,
        )
        np.testing.assert_array_equal(base.values, out.values)

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("chunk", [2.3, 15.0, None])
    def test_streamed_invariant_to_geometry(self, small_ensemble, chunk, workers):
        base = GenerationEngine(chunk=6.0, workers=1).rate_series_streamed(
            40.0, small_ensemble, TriangularShot(), 60.0, 0.2, seed=8
        )
        out = GenerationEngine(chunk=chunk, workers=workers).rate_series_streamed(
            40.0, small_ensemble, TriangularShot(), 60.0, 0.2, seed=8
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
    def test_matches_scatter_to_roundoff(self, small_ensemble):
        engine = GenerationEngine(chunk=5.0)
        fast = engine.rate_series_streamed(
            40.0, small_ensemble, RectangularShot(), 90.0, 0.2, seed=13,
            exact=False,
        )
        slow = engine.rate_series_streamed(
            40.0, small_ensemble, RectangularShot(), 90.0, 0.2, seed=13,
            exact=True,
        )
        np.testing.assert_allclose(fast.values, slow.values, rtol=1e-9)

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("chunk", [3.0, 20.0, None])
    def test_fast_path_geometry_roundoff_only(
        self, small_ensemble, chunk, workers
    ):
        base = GenerationEngine(chunk=5.0, workers=1).rate_series_streamed(
            40.0, small_ensemble, RectangularShot(), 60.0, 0.2, seed=13,
            exact=False,
        )
        out = GenerationEngine(chunk=chunk, workers=workers).rate_series_streamed(
            40.0, small_ensemble, RectangularShot(), 60.0, 0.2, seed=13,
            exact=False,
        )
        np.testing.assert_allclose(base.values, out.values, rtol=1e-9)

    def test_compat_default_stays_bitwise_for_rectangles(self, small_ensemble):
        """exact=True (the generate_rate_series default) must not trade
        reference equality for the fast path."""
        ref = reference_rate_series(
            40.0, small_ensemble, RectangularShot(), duration=60.0, delta=0.2,
            rng=17,
        )
        out = generate_rate_series(
            40.0, small_ensemble, RectangularShot(), duration=60.0, delta=0.2,
            rng=17, chunk=3.0,
        )
        np.testing.assert_array_equal(ref.values, out.values)


class TestPacketPaths:
    def test_chunked_packet_trace_identical(self, small_ensemble):
        base = generate_packet_trace(
            40.0, small_ensemble, TriangularShot(), duration=45.0,
            link_capacity=1e8, rng=6,
        )
        for chunk in (4.0, 13.0):
            out = generate_packet_trace(
                40.0, small_ensemble, TriangularShot(), duration=45.0,
                link_capacity=1e8, rng=6, chunk=chunk,
            )
            np.testing.assert_array_equal(base.packets, out.packets)
        assert base.is_sorted()

    def test_streamed_writer_chunk_invariant_and_sorted(
        self, small_ensemble, tmp_path
    ):
        paths = []
        for chunk in (7.0, 22.0):
            path = tmp_path / f"gen_{chunk}.rptr"
            n = GenerationEngine(chunk=chunk).write_packet_trace(
                path, 40.0, small_ensemble, TriangularShot(), 45.0,
                link_capacity=1e8, seed=9,
            )
            assert n > 0
            paths.append(path)
        a, b = (read_trace(p) for p in paths)
        np.testing.assert_array_equal(a.packets, b.packets)
        assert a.is_sorted()
        assert a.duration == pytest.approx(45.0)

    def test_streamed_writer_no_flows_leaves_no_file(
        self, small_ensemble, tmp_path
    ):
        path = tmp_path / "empty.rptr"
        with pytest.raises(ParameterError):
            GenerationEngine().write_packet_trace(
                path, 1e-9, small_ensemble, TriangularShot(), 0.1,
                link_capacity=1e8, seed=0, warmup=0.0,
            )
        assert not path.exists()

    def test_streamed_writer_rate_matches_model(self, small_ensemble, tmp_path):
        path = tmp_path / "gen.rptr"
        GenerationEngine(chunk=20.0).write_packet_trace(
            path, 40.0, small_ensemble, TriangularShot(), 120.0,
            link_capacity=1e8, seed=3, header_bytes=0, jitter=0.0,
        )
        trace = read_trace(path)
        expected = 40.0 * small_ensemble.mean_size
        assert trace.mean_rate_bps / 8.0 == pytest.approx(expected, rel=0.1)


class TestEngineConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            EngineConfig(chunk=-1.0)
        with pytest.raises(ParameterError):
            EngineConfig(workers=0)
        with pytest.raises(ParameterError):
            EngineConfig(workers=2.5)
        with pytest.raises(ParameterError):
            EngineConfig(arrival_cell=0.0)

    def test_integral_float_workers_coerced(self):
        assert EngineConfig(workers=2.0).workers == 2
        assert isinstance(EngineConfig(workers=2.0).workers, int)

    def test_kwarg_overrides(self):
        engine = GenerationEngine(chunk=3.0, workers=2)
        assert engine.config.chunk == 3.0
        assert engine.config.workers == 2
        assert engine.config.arrival_cell == EngineConfig().arrival_cell


class TestSplitmixJitter:
    def test_uniform_range_and_determinism(self):
        keys = np.arange(1000, dtype=np.uint64) * np.uint64(2654435761)
        idx = np.arange(1000, dtype=np.int64) % 7
        u = _splitmix_uniform(keys, idx)
        assert np.all((u >= 0.0) & (u < 1.0))
        np.testing.assert_array_equal(u, _splitmix_uniform(keys, idx))
        # roughly uniform: mean near 0.5, no mass collapse
        assert abs(u.mean() - 0.5) < 0.05
        assert len(np.unique(u)) == len(u)
