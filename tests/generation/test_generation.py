"""Tests for repro.generation: section VII-C traffic synthesis."""

from __future__ import annotations

import pytest

from repro.core import (
    EmpiricalEnsemble,
    ParabolicShot,
    PoissonShotNoiseModel,
    RectangularShot,
    TriangularShot,
)
from repro.exceptions import ParameterError
from repro.flows import export_five_tuple_flows
from repro.generation import GenerationEngine
from repro.stats import RateSeries


class TestFluidGeneration:
    def test_mean_matches_model(self, ensemble):
        model = PoissonShotNoiseModel(50.0, ensemble, TriangularShot())
        series = GenerationEngine().rate_series(
            50.0, ensemble, TriangularShot(), duration=300.0, delta=0.2, rng=0
        )
        assert series.mean == pytest.approx(model.mean, rel=0.05)

    def test_variance_matches_averaged_model(self, ensemble):
        """The generated bin variance matches eq. (7), not Gamma(0)."""
        model = PoissonShotNoiseModel(50.0, ensemble, TriangularShot())
        delta = 0.2
        series = GenerationEngine().rate_series(
            50.0, ensemble, TriangularShot(), duration=600.0, delta=delta, rng=1
        )
        assert series.variance == pytest.approx(
            model.averaged_variance(delta), rel=0.15
        )

    def test_shot_shape_changes_variance(self, ensemble):
        """Parabolic shots generate burstier traffic than rectangles — the
        paper's central point for simulation-traffic realism."""
        kwargs = dict(duration=400.0, delta=0.2)
        rect = GenerationEngine().rate_series(
            50.0, ensemble, RectangularShot(), rng=2, **kwargs
        )
        para = GenerationEngine().rate_series(
            50.0, ensemble, ParabolicShot(), rng=2, **kwargs
        )
        assert para.variance > 1.2 * rect.variance
        assert para.mean == pytest.approx(rect.mean, rel=0.05)

    def test_stationary_after_warmup(self, ensemble):
        series = GenerationEngine().rate_series(
            50.0, ensemble, TriangularShot(), duration=400.0, delta=0.5, rng=3
        )
        half = len(series) // 2
        first = series.window(0, half)
        second = series.window(half, len(series))
        assert first.mean == pytest.approx(second.mean, rel=0.1)

    def test_volume_conservation_deterministic_flows(self):
        """With deterministic (S, D), generated volume ~ lambda * S * T."""
        ens = EmpiricalEnsemble([1e4], [1.0])
        duration, lam = 200.0, 20.0
        series = GenerationEngine().rate_series(
            lam, ens, RectangularShot(), duration=duration, delta=0.5, rng=4
        )
        total = series.values.sum() * series.delta
        assert total == pytest.approx(lam * 1e4 * duration, rel=0.05)

    def test_validation(self, ensemble):
        with pytest.raises(ParameterError):
            GenerationEngine().rate_series(
                50.0, ensemble, TriangularShot(), duration=1.0, delta=2.0
            )
        with pytest.raises(ParameterError):
            GenerationEngine().rate_series(
                1e-9, ensemble, TriangularShot(), duration=0.1, delta=0.05,
                warmup=0.0, rng=5,
            )


class TestPacketGeneration:
    def test_trace_rate_matches_model(self, ensemble):
        model = PoissonShotNoiseModel(50.0, ensemble, TriangularShot())
        trace = GenerationEngine().packet_trace(
            50.0, ensemble, TriangularShot(), duration=120.0,
            link_capacity=1e8, rng=6,
        )
        # wire overhead inflates the byte rate slightly; edge truncation
        # removes a little
        assert trace.mean_rate_bps / 8.0 == pytest.approx(model.mean, rel=0.15)

    def test_remesurable_by_flow_pipeline(self, ensemble):
        """Generated traffic re-measured through the exporter produces flow
        statistics close to the generating ensemble."""
        trace = GenerationEngine().packet_trace(
            50.0, ensemble, TriangularShot(), duration=120.0,
            link_capacity=1e8, rng=7,
        )
        flows = export_five_tuple_flows(trace, timeout=8.0)
        assert len(flows) > 100
        measured_mean_size = flows.sizes.mean()
        # header overhead ~ +3-6%
        assert measured_mean_size == pytest.approx(
            ensemble.mean_size, rel=0.25
        )

    def test_sorted_and_windowed(self, ensemble):
        trace = GenerationEngine().packet_trace(
            30.0, ensemble, RectangularShot(), duration=60.0,
            link_capacity=1e8, rng=8,
        )
        assert trace.is_sorted()
        assert trace.packets["timestamp"].max() < 60.0

    def test_generated_bins_match_fluid_statistics(self, ensemble):
        """Packetized generation agrees with fluid generation moments."""
        fluid = GenerationEngine().rate_series(
            40.0, ensemble, TriangularShot(), duration=300.0, delta=0.5, rng=9
        )
        trace = GenerationEngine().packet_trace(
            40.0, ensemble, TriangularShot(), duration=300.0,
            link_capacity=1e8, header_bytes=0, rng=10,
        )
        binned = RateSeries.from_packets(trace, 0.5)
        assert binned.mean == pytest.approx(fluid.mean, rel=0.1)
        assert binned.std == pytest.approx(fluid.std, rel=0.35)
