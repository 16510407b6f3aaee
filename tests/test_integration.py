"""End-to-end integration tests: the full paper pipeline.

synthesise link -> capture trace -> write/read trace file -> export flows
-> parameterise model -> validate CoV -> fit b -> predict -> generate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PoissonShotNoiseModel, PowerShot, fit_power_from_variance
from repro.experiments import SCALED_TIMEOUT
from repro.flows import export_five_tuple_flows, export_prefix_flows
from repro.generation import GenerationEngine
from repro.measurement import MeasurementEngine
from repro.prediction import ModelBasedPredictor, prediction_error
from repro.stats import RateSeries, exponentiality
from repro.trace import read_trace, write_trace


class TestFullPipeline:
    def test_trace_file_roundtrip(self, trace, tmp_path):
        path = tmp_path / "link.rptr"
        write_trace(trace, path)
        back = read_trace(path)
        np.testing.assert_array_equal(back.packets, trace.packets)

    def test_poisson_assumption_holds_on_synthetic_link(self, five_tuple_flows):
        """Assumption 1 check (paper Figures 3-4) on the synthetic trace."""
        report = exponentiality(five_tuple_flows.interarrival_times)
        assert report.qq_correlation > 0.99
        assert 0.8 < report.cov < 1.2

    def test_model_cov_within_40pct_of_measured(self, measure_interval):
        """The Figures 9-13 headline: model CoV tracks measured CoV."""
        for kind in ("five_tuple", "prefix"):
            measurement, _ = measure_interval(kind)
            best = min(
                abs(measurement.relative_error(b)) for b in (0.0, 1.0, 2.0)
            )
            assert best < 0.40

    def test_fitted_power_reasonable(self, measure_interval):
        measurement, _ = measure_interval("five_tuple")
        assert 0.0 <= measurement.fitted_power < 8.0  # Figure 11 support

    def test_mean_rate_agreement(self, trace, five_tuple_flows):
        """Corollary 1 on real measurements: lambda E[S] ~ measured rate.

        Discarded single-packet flows and packet headers make the flow-level
        rate slightly lower than the wire rate.
        """
        stats = five_tuple_flows.statistics(trace.duration)
        wire_rate = trace.mean_rate_bps / 8.0
        assert stats.mean_rate == pytest.approx(wire_rate, rel=0.15)

    def test_aggregation_reduces_flow_count(self, five_tuple_flows, prefix_flows):
        """Section VI-A: /24 aggregation reduces tracked flows."""
        assert len(prefix_flows) < len(five_tuple_flows)
        assert prefix_flows.durations.mean() > five_tuple_flows.durations.mean()

    def test_model_predicts_its_own_generation(self, trace, five_tuple_flows):
        """Close the loop: fit the model on measured flows, generate
        synthetic traffic from it, re-measure, compare CoV."""
        stats = five_tuple_flows.statistics(trace.duration)
        fit = fit_power_from_variance(
            MeasurementEngine().measure_trace(
                trace, delta=0.2, timeout=8.0
            ).series.variance,
            stats,
        )
        model = PoissonShotNoiseModel.from_flows(
            five_tuple_flows.sizes,
            five_tuple_flows.durations,
            trace.duration,
            fit.shot,
        )
        generated = GenerationEngine().rate_series(
            model.arrival_rate, model.ensemble, model.shot,
            duration=240.0, delta=0.2, seed=0,
        )
        assert generated.mean == pytest.approx(model.mean, rel=0.1)
        assert generated.coefficient_of_variation == pytest.approx(
            np.sqrt(model.averaged_variance(0.2)) / model.mean, rel=0.25
        )

    def test_model_based_prediction_on_real_trace(self, trace, five_tuple_flows):
        """Section VII-B end-to-end on the synthetic capture."""
        model = PoissonShotNoiseModel.from_flows(
            five_tuple_flows.sizes, five_tuple_flows.durations,
            trace.duration, PowerShot(1.0),
        )
        series = RateSeries.from_packets(trace, 1.0)
        predictor = ModelBasedPredictor(model, sample_interval=1.0, order=3)
        err = prediction_error(predictor, series)
        unconditional = series.std / series.mean
        assert err < unconditional  # prediction beats the mean

    def test_timeout_sensitivity(self, trace):
        """Shorter timeouts split flows into more, shorter pieces — and
        more single-packet fragments get discarded."""
        strict = export_five_tuple_flows(trace, timeout=1.0)
        loose = export_five_tuple_flows(trace, timeout=SCALED_TIMEOUT)
        assert strict.durations.mean() < loose.durations.mean()
        assert strict.discarded_packets >= loose.discarded_packets
        # kept + discarded fragments together can only grow when splitting
        assert len(strict) + strict.discarded_packets >= len(loose)

    def test_prefix_lengths_aggregate_monotonically(self, trace):
        """Coarser prefixes mean fewer flows (the /8-/16 extension)."""
        counts = [
            len(export_prefix_flows(trace, prefix_length=p, timeout=8.0))
            for p in (24, 16, 8)
        ]
        assert counts[0] >= counts[1] >= counts[2]
