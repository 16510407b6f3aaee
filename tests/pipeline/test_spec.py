"""ScenarioSpec serialization: round-trips, validation, preset resolution."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ParameterError
from repro.netsim.arrivals import (
    DiurnalArrivals,
    MMPPArrivals,
    SessionArrivals,
)
from repro.pipeline import (
    AnomalySpec,
    ArrivalSpec,
    EstimationSpec,
    ExecutionSpec,
    FitSpec,
    GenerationSpec,
    MeasurementSpec,
    ScenarioSpec,
    ValidationSpec,
    WorkloadSpec,
    default_registry,
    resolve_preset,
)


def _rich_spec() -> ScenarioSpec:
    """A spec exercising every nested section."""
    return ScenarioSpec(
        name="rich",
        description="everything enabled",
        seed=5,
        workload=WorkloadSpec(
            preset="table-i-1",
            duration=60.0,
            arrivals=ArrivalSpec(kind="diurnal", relative_amplitude=0.3),
        ),
        measurement=MeasurementSpec(
            execution=ExecutionSpec(chunk=100_000, workers=4)
        ),
        estimation=EstimationSpec(delta=0.1, estimator="ewma"),
        fit=FitSpec(powers=(0.0, 1.5), class_split_bytes=10e3),
        generation=GenerationSpec(chunk=5.0, workers=2, seed=9),
        anomaly=AnomalySpec(kind="flood", start=10.0, duration=5.0),
        validation=ValidationSpec(detect_anomalies=True, max_lag=10),
    )


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["medium", "mice-elephants",
                                      "diurnal-ramp", "flash-flood"])
    def test_registry_specs_round_trip(self, name):
        spec = default_registry().get(name)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_dict_json_dict_identity(self):
        spec = _rich_spec()
        via_json = ScenarioSpec.from_json(spec.to_json())
        assert via_json == spec
        # and the dict is genuinely JSON-safe
        assert json.loads(spec.to_json()) == spec.to_dict()

    def test_file_round_trip(self, tmp_path):
        spec = _rich_spec()
        path = spec.to_file(tmp_path / "rich.json")
        assert ScenarioSpec.from_file(path) == spec

    def test_powers_normalised_to_float_tuple(self):
        spec = ScenarioSpec(name="x", workload=WorkloadSpec(preset="low"),
                            fit=FitSpec(powers=[0, 1]))
        assert spec.fit.powers == (0.0, 1.0)
        assert isinstance(spec.fit.powers, tuple)

    def test_null_generation_round_trips(self):
        spec = ScenarioSpec(
            name="no-gen", workload=WorkloadSpec(preset="low"),
            generation=None,
        )
        back = ScenarioSpec.from_dict(spec.to_dict())
        assert back.generation is None
        assert back == spec

    def test_measurement_section(self):
        data = default_registry().get("medium").to_dict()
        for knob, bad in (("chunk", 0), ("workers", 0), ("workers", 1.5)):
            # 1.5 workers would be silently truthy if truncated
            data["measurement"] = {"execution": {knob: bad}}
            with pytest.raises(
                ParameterError,
                match=rf"spec\.measurement\.execution: execution\.{knob}",
            ):
                ScenarioSpec.from_dict(data)
        data["measurement"] = {"execution": {"chunk": 5000}, "typo": 1}
        with pytest.raises(ParameterError, match=r"spec\.measurement"):
            ScenarioSpec.from_dict(data)


class TestRejection:
    def test_unknown_top_level_key(self):
        data = default_registry().get("medium").to_dict()
        data["worklod"] = data.pop("workload")
        with pytest.raises(ParameterError, match="unknown key.*worklod"):
            ScenarioSpec.from_dict(data)

    def test_unknown_key_lists_valid_ones(self):
        with pytest.raises(ParameterError, match="valid keys"):
            ScenarioSpec.from_dict({"name": "x", "bogus": 1})

    def test_nested_error_carries_path(self):
        data = default_registry().get("medium").to_dict()
        data["flows"]["kind"] = "six_tuple"
        with pytest.raises(ParameterError, match=r"spec\.flows"):
            ScenarioSpec.from_dict(data)

    def test_workload_needs_exactly_one_source(self):
        with pytest.raises(ParameterError, match="exactly one"):
            WorkloadSpec()
        with pytest.raises(ParameterError, match="exactly one"):
            WorkloadSpec(preset="low", target_mean_rate_bps=1e6)

    def test_not_json(self):
        with pytest.raises(ParameterError, match="not valid JSON"):
            ScenarioSpec.from_json("{nope")

    @pytest.mark.parametrize("section,key,bad", [
        ("workload", "duration", "long"),   # ValueError from float()
        ("workload", "duration", None),     # TypeError from float(None)
        ("estimation", "delta", "fast"),
    ])
    def test_mistyped_value_fails_with_path(self, section, key, bad):
        """Wrong-typed values must surface as ParameterError, not raw
        ValueError/TypeError tracebacks."""
        data = default_registry().get("medium").to_dict()
        data[section][key] = bad
        with pytest.raises(ParameterError, match=rf"spec\.{section}"):
            ScenarioSpec.from_dict(data)

    def test_mistyped_seed_fails_with_path(self):
        data = default_registry().get("medium").to_dict()
        data["seed"] = "five"
        with pytest.raises(ParameterError, match="spec"):
            ScenarioSpec.from_dict(data)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParameterError, match="does not exist"):
            ScenarioSpec.from_file(tmp_path / "missing.json")

    def test_empty_name_rejected(self):
        with pytest.raises(ParameterError, match="non-empty"):
            ScenarioSpec(name="  ", workload=WorkloadSpec(preset="low"))

    def test_bad_estimator(self):
        with pytest.raises(ParameterError, match="estimation.estimator"):
            EstimationSpec(estimator="kalman")

    def test_mode_key_in_generation_rejected(self):
        data = default_registry().get("medium").to_dict()
        data["generation"]["mode"] = "exact"
        with pytest.raises(ParameterError, match=r"spec\.generation.*'mode'"):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize("seed", [1.5, "abc", -1])
    @pytest.mark.parametrize("build", [
        lambda seed: GenerationSpec(seed=seed),
        lambda seed: ScenarioSpec(name="x", seed=seed),
    ], ids=["generation", "scenario"])
    def test_seed_must_be_a_nonnegative_integer(self, build, seed):
        with pytest.raises(ParameterError, match="seed must be"):
            build(seed)

    def test_anomaly_needs_workload(self):
        with pytest.raises(ParameterError, match="workload"):
            ScenarioSpec(name="x", workload=None,
                         anomaly=AnomalySpec(kind="flood"))


class TestPresets:
    @pytest.mark.parametrize("alias,row", [("low", 3), ("medium", 4),
                                           ("high", 2)])
    def test_aliases(self, alias, row):
        assert resolve_preset(alias) == row

    @pytest.mark.parametrize("ref,row", [("0", 0), (6, 6), ("table-i-5", 5)])
    def test_row_references(self, ref, row):
        assert resolve_preset(ref) == row

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ParameterError) as err:
            resolve_preset("enormous")
        message = str(err.value)
        assert "low" in message and "medium" in message and "high" in message
        assert "0-6" in message

    def test_out_of_range_row(self):
        with pytest.raises(ParameterError, match="0-6"):
            resolve_preset(7)


class TestArrivalBuild:
    def test_diurnal(self):
        process = ArrivalSpec(kind="diurnal", relative_amplitude=0.4).build(
            10.0, 120.0
        )
        assert isinstance(process, DiurnalArrivals)
        assert process.mean_rate == pytest.approx(10.0)
        assert process.period == pytest.approx(120.0)

    def test_mmpp_scales_base_rate(self):
        process = ArrivalSpec(
            kind="mmpp", rate_factors=(0.5, 2.0), mean_sojourns=(5.0, 5.0)
        ).build(8.0, 60.0)
        assert isinstance(process, MMPPArrivals)
        assert process.mean_rate == pytest.approx(8.0 * 1.25)

    def test_sessions_preserve_flow_rate(self):
        process = ArrivalSpec(kind="sessions", flows_per_session=4.0).build(
            12.0, 60.0
        )
        assert isinstance(process, SessionArrivals)
        assert process.mean_rate == pytest.approx(12.0)
