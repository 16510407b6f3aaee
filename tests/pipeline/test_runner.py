"""Runner/registry behaviour: determinism, equivalence, stage results."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import PoissonShotNoiseModel, SuperposedModel
from repro.exceptions import ParameterError
from repro.measurement import reference_export_flows
from repro.netsim import medium_utilization_link, table_i_workload
from repro.pipeline import (
    EstimationSpec,
    ExecutionSpec,
    FitSpec,
    GenerationSpec,
    MEASUREMENT_STAGES,
    MeasurementSpec,
    ScenarioSpec,
    WorkloadSpec,
    apply_quick_mode,
    default_registry,
    run_scenario,
    run_scenarios,
)
from repro.stats import RateSeries

DURATION = 24.0


def _short(name: str, **overrides) -> ScenarioSpec:
    spec = default_registry().get(name)
    workload = replace(spec.workload, duration=DURATION)
    return spec.with_overrides(workload=workload, **overrides)


class TestEquivalence:
    """The new stages reproduce the PR-1 outputs bit-for-bit."""

    def test_synthesize_matches_direct_workload(self):
        result = run_scenario(_short("medium"), stages=MEASUREMENT_STAGES)
        direct = medium_utilization_link(duration=DURATION).synthesize(
            seed=0
        ).trace
        assert np.array_equal(result.trace.packets, direct.packets)

    @pytest.mark.parametrize("row", [2, 3])
    def test_table_i_preset_traces(self, row):
        spec = _short(f"table-i-{row}")
        result = run_scenario(spec, stages=MEASUREMENT_STAGES)
        direct = table_i_workload(row, duration=DURATION).synthesize(
            seed=0
        ).trace
        assert np.array_equal(result.trace.packets, direct.packets)

    def test_measurement_matches_hand_wired_loop(self):
        """Stage outputs equal the in-memory oracle + measure/fit glue."""
        result = run_scenario(_short("medium"), stages=MEASUREMENT_STAGES)
        trace = result.trace

        flows, packet_map = reference_export_flows(
            trace, key="five_tuple", timeout=8.0
        )
        series = RateSeries.from_packets(
            trace.packets[packet_map >= 0], 0.2, duration=trace.duration
        )
        model = PoissonShotNoiseModel.from_flows(
            flows.sizes, flows.durations, trace.duration
        )
        fit = model.fit_power(series.variance)

        assert len(result.accounting.flows) == len(flows)
        assert result.estimation.series.variance == series.variance
        assert (
            result.validation.measured_cov == series.coefficient_of_variation
        )
        assert result.fit.power_fit.power == fit.power
        assert result.fit.power_fit.kappa == fit.kappa


class TestStreamingMeasurement:
    """The measurement section is execution strategy, never semantics."""

    @pytest.mark.parametrize("chunk,workers", [(2048, 1), (999, 3), (None, 4)])
    def test_streaming_measurement_identical_report(self, chunk, workers):
        base_spec = _short("medium")
        streamed_spec = base_spec.with_overrides(
            measurement=MeasurementSpec(
                ExecutionSpec(chunk=chunk, workers=workers)
            )
        )
        base = run_scenario(base_spec, stages=MEASUREMENT_STAGES)
        streamed = run_scenario(streamed_spec, stages=MEASUREMENT_STAGES)
        np.testing.assert_array_equal(
            base.accounting.flows.sizes, streamed.accounting.flows.sizes
        )
        np.testing.assert_array_equal(
            base.estimation.series.values, streamed.estimation.series.values
        )
        assert base.validation.to_dict() == streamed.validation.to_dict()

    def test_estimate_uses_streamed_series_without_packet_map(self):
        """The engine hands Estimate the series it accumulated, so the
        FlowSet needs no packet map."""
        spec = _short(
            "medium", measurement=MeasurementSpec(ExecutionSpec(chunk=4096))
        )
        result = run_scenario(spec, stages=MEASUREMENT_STAGES)
        assert result.estimation.series is result.accounting.series


class TestDeterminism:
    def test_run_many_invariant_to_workers(self):
        specs = [_short("medium"), _short("low", seed=3)]
        serial = run_scenarios(specs, workers=1)
        parallel = run_scenarios(specs, workers=4)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.trace.packets, b.trace.packets)
            assert a.validation.to_dict() == b.validation.to_dict()

    def test_generation_chunk_invariant(self):
        base = _short("medium")
        chunked = base.with_overrides(
            generation=GenerationSpec(chunk=3.0, workers=2)
        )
        a = run_scenario(base)
        b = run_scenario(chunked)
        np.testing.assert_array_equal(
            a.generation.series.values, b.generation.series.values
        )

    def test_same_spec_same_report(self):
        spec = _short("medium")
        assert (
            run_scenario(spec).validation.to_dict()
            == run_scenario(spec).validation.to_dict()
        )


class TestStageResults:
    def test_ewma_snapshot_reported(self):
        spec = _short(
            "medium", estimation=EstimationSpec(estimator="ewma")
        )
        result = run_scenario(spec, stages=MEASUREMENT_STAGES)
        online = result.estimation.online_statistics
        assert online is not None
        batch = result.estimation.statistics
        # EWMA weights recent flows; it should land in the same decade
        assert online.mean_size == pytest.approx(batch.mean_size, rel=2.0)

    def test_multiclass_superposition(self):
        result = run_scenario(
            _short("mice-elephants"), stages=MEASUREMENT_STAGES
        )
        assert isinstance(result.fit.superposed, SuperposedModel)
        assert len(result.fit.superposed.components) == 2
        # superposed mean equals the single-class mean (same flows)
        assert result.fit.superposed.mean == pytest.approx(
            result.fit.model.mean
        )

    def test_degenerate_class_split_is_noted_not_fatal(self):
        spec = _short("medium", fit=FitSpec(class_split_bytes=1e12))
        result = run_scenario(spec, stages=MEASUREMENT_STAGES)
        assert result.fit.superposed is None
        assert "empty" in result.fit.class_note

    def test_flood_scenario_detects_event(self):
        spec = default_registry().get("flash-flood")
        result = run_scenario(spec, stages=MEASUREMENT_STAGES)
        report = result.validation
        floods = [e for e in report.anomalies if e.kind == "flood"]
        assert floods
        starts = [e.start_time(report.anomaly_delta_s) for e in floods]
        assert any(35.0 <= s <= 45.0 for s in starts)

    def test_flood_raw_series_is_the_trace_binning(self):
        """Injection materialises the trace; the raw link rate the
        detector watches is still the one measurement pass's series,
        bitwise what binning every packet of the trace gives."""
        spec = default_registry().get("flash-flood")
        result = run_scenario(spec, stages=MEASUREMENT_STAGES)
        raw = RateSeries.from_packets(result.trace, spec.estimation.delta)
        assert np.array_equal(result.accounting.raw_series.values, raw.values)
        assert [
            (e.kind, e.start_index, e.end_index, e.peak_z)
            for e in result.validation.anomalies
        ] == [
            ("flood", 200, 300, 10.504420090608674),
            ("flood", 450, 454, 3.8824373629178),
        ]

    def test_report_is_json_safe(self):
        import json

        report = run_scenario(_short("medium")).report()
        parsed = json.loads(json.dumps(report))
        assert parsed["validation"]["within_band"] in (True, False)
        assert parsed["validation"]["interarrivals"]["ks_method"] in (
            "exact",
            "asymptotic",
        )

    def test_provided_trace_skips_synthesis(self):
        trace = medium_utilization_link(duration=DURATION).synthesize(
            seed=1
        ).trace
        spec = ScenarioSpec(name="external", workload=None, generation=None)
        result = run_scenario(spec, trace=trace)
        assert result.synthesis.source == "provided"
        assert result.trace is trace

    def test_missing_workload_and_trace_is_actionable(self):
        spec = ScenarioSpec(name="empty", workload=None, generation=None)
        with pytest.raises(ParameterError, match="workload"):
            run_scenario(spec)


class TestRegistry:
    def test_unknown_scenario_lists_names(self):
        with pytest.raises(ParameterError, match="medium"):
            default_registry().get("does-not-exist")

    def test_duplicate_registration_rejected(self):
        from repro.pipeline import ScenarioRegistry

        spec = ScenarioSpec(name="dup", workload=WorkloadSpec(preset="low"))
        registry = ScenarioRegistry([spec])
        with pytest.raises(ParameterError, match="already registered"):
            registry.register(spec)
        registry.register(spec, overwrite=True)
        assert registry.get("dup") is spec

    def test_builtin_names(self):
        names = default_registry().names()
        for expected in ("low", "medium", "high", "table-i-0", "table-i-6",
                         "mice-elephants", "diurnal-ramp", "flash-flood",
                         "link-outage"):
            assert expected in names


class TestQuickMode:
    def test_caps_durations(self):
        spec = default_registry().get("flash-flood")
        quick = apply_quick_mode(spec, force=True)
        assert quick.workload.duration == 30.0
        # the injected event still fits inside the shortened capture
        assert (
            quick.anomaly.start + quick.anomaly.duration
            <= quick.workload.duration
        )

    def test_off_is_identity(self):
        spec = default_registry().get("medium")
        assert apply_quick_mode(spec, force=False) is spec

    @pytest.mark.parametrize("value,expect_quick", [
        ("1", True), ("0", False), ("", False),
    ])
    def test_env_convention_matches_benchmarks(self, monkeypatch, value,
                                               expect_quick):
        """REPRO_BENCH_QUICK=0 means off, like benchmarks/conftest.py."""
        monkeypatch.setenv("REPRO_BENCH_QUICK", value)
        spec = default_registry().get("medium")
        quick = apply_quick_mode(spec)
        assert (quick.workload.duration == 30.0) is expect_quick


class TestStreamedSynthesis:
    """spec.synthesis streams synthesize → measure with identical results."""

    def _pair(self, name="medium", **spec_overrides):
        classic = run_scenario(_short(name, **spec_overrides))
        streamed = run_scenario(_short(
            name,
            synthesis={"execution": {"chunk": 3000, "workers": 2}},
            **spec_overrides,
        ))
        return classic, streamed

    def test_results_identical_to_classic(self):
        classic, streamed = self._pair()
        assert streamed.synthesis.source == "streamed"
        assert streamed.trace is None
        np.testing.assert_array_equal(
            streamed.accounting.flows.starts, classic.accounting.flows.starts
        )
        np.testing.assert_array_equal(
            streamed.accounting.flows.sizes, classic.accounting.flows.sizes
        )
        np.testing.assert_array_equal(
            streamed.estimation.series.values, classic.estimation.series.values
        )
        assert streamed.validation.to_dict() == classic.validation.to_dict()
        # the stream's counters land in the synthesis summary
        s = streamed.synthesis.summary()
        c = classic.synthesis.summary()
        assert s["packets"] == c["packets"]
        assert s["mean_rate_bps"] == pytest.approx(c["mean_rate_bps"])

    def test_streamed_anomaly_detection_uses_raw_series(self):
        classic, streamed = self._pair(
            validation={"detect_anomalies": True},
        )
        assert streamed.accounting.raw_series is not None
        assert streamed.validation.to_dict() == classic.validation.to_dict()

    def test_anomaly_injection_falls_back_to_materialised(self):
        spec = _short(
            "flash-flood",
            synthesis={"execution": {"chunk": 2500}},
            anomaly={"kind": "flood", "start": 8.0, "duration": 6.0},
        )
        result = run_scenario(spec)
        # injection needs the packet array: the stage materialises, and
        # the engine's invariance keeps the packets identical
        assert result.synthesis.source == "synthesized"
        assert result.trace is not None

    def test_spec_round_trips_synthesis_section(self):
        spec = _short(
            "medium", synthesis={"execution": {"chunk": 1234, "workers": 3}}
        )
        again = ScenarioSpec.from_json(spec.to_json())
        assert again.synthesis.chunk == 1234
        assert again.synthesis.workers == 3
        assert again == spec
