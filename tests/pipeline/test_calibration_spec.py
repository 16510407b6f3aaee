"""`calibration:` spec section, SizeDistributionSpec, and the stage."""

from __future__ import annotations

import pytest

from repro.exceptions import ParameterError
from repro.pipeline import (
    CalibrationSpec,
    FitSpec,
    ScenarioSpec,
    SizeDistributionSpec,
    WorkloadSpec,
    run_scenario,
)
from repro.pipeline.spec import ExecutionSpec


def base_spec(**kwargs):
    return ScenarioSpec(
        name="calib",
        workload=WorkloadSpec(
            target_mean_rate_bps=30e6,
            link_capacity_bps=622.08e6,
            duration=20.0,
        ),
        **kwargs,
    )


class TestSizeDistributionSpec:
    def test_roundtrip(self):
        spec = SizeDistributionSpec(
            kind="lognormal", median=3000.0, sigma=0.8
        )
        data = {"kind": "lognormal", "median": 3000.0, "sigma": 0.8}
        assert spec.params() == {"median": 3000.0, "sigma": 0.8}
        loaded = ScenarioSpec.from_dict(
            {
                "name": "s",
                "workload": {
                    "target_mean_rate_bps": 30e6,
                    "link_capacity_bps": 622.08e6,
                    "duration": 20.0,
                    "sizes": data,
                },
            }
        )
        assert loaded.workload.sizes == spec

    def test_unknown_kind(self):
        with pytest.raises(ParameterError, match="kind"):
            SizeDistributionSpec(kind="weibull", median=1.0)

    def test_missing_required_param(self):
        with pytest.raises(ParameterError, match="sigma"):
            SizeDistributionSpec(kind="lognormal", median=3000.0)

    def test_extraneous_param(self):
        with pytest.raises(ParameterError, match="alpha"):
            SizeDistributionSpec(
                kind="lognormal", median=3000.0, sigma=0.8, alpha=1.5
            )

    def test_invalid_values_caught_at_build(self):
        with pytest.raises(ParameterError):
            SizeDistributionSpec(kind="lognormal", median=-5.0, sigma=0.8)

    def test_sizes_replace_the_preset_law(self):
        workload = WorkloadSpec(
            preset="medium",
            sizes=SizeDistributionSpec(
                kind="exponential", mean_bytes=9000.0
            ),
        ).build()
        assert workload.size_dist.mean() == pytest.approx(9000.0)


class TestCalibrationSpecValidation:
    def test_defaults_roundtrip(self):
        spec = base_spec(calibration=CalibrationSpec())
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_unknown_family(self):
        with pytest.raises(ParameterError, match="families"):
            CalibrationSpec(families=("lognormal", "weibull"))

    def test_unknown_criterion(self):
        with pytest.raises(ParameterError, match="select"):
            CalibrationSpec(select="best")

    def test_bad_quantiles(self):
        with pytest.raises(ParameterError, match="tail_quantiles"):
            CalibrationSpec(tail_quantiles=(0.5, 1.5))

    def test_bad_tolerances(self):
        with pytest.raises(ParameterError, match="lambda_rtol"):
            CalibrationSpec(lambda_rtol=-0.1)

    def test_execution_aliases(self):
        section = CalibrationSpec(
            execution=ExecutionSpec(chunk=5000, workers=3)
        )
        assert section.chunk == 5000
        assert section.workers == 3
        assert section.execution == ExecutionSpec(chunk=5000, workers=3)

    def test_network_conflict(self):
        with pytest.raises(ParameterError, match="calibration"):
            ScenarioSpec.from_dict(
                {
                    "name": "bad",
                    "network": {
                        "topology": {"preset": "abilene"},
                        "demands": [
                            {
                                "source": "seattle",
                                "sink": "newyork",
                                "preset": "medium",
                            }
                        ],
                    },
                    "calibration": {},
                }
            )


class TestFitUnification:
    """`fit:` keeps its semantics; `calibration:` defers or must agree."""

    def test_calibration_powers_default_to_fit_powers(self):
        spec = base_spec(
            fit=FitSpec(powers=(0.0, 1.5, 3.0)),
            calibration=CalibrationSpec(),
        )
        result = run_scenario(spec)
        assert result.calibration.powers == (0.0, 1.5, 3.0)

    def test_agreeing_powers_are_fine(self):
        base_spec(
            fit=FitSpec(powers=(0.0, 1.5, 3.0)),
            calibration=CalibrationSpec(powers=(0.0, 1.5, 3.0)),
        )

    def test_contradictory_powers_rejected(self):
        with pytest.raises(ParameterError, match="MIGRATION"):
            base_spec(
                fit=FitSpec(powers=(0.0, 1.5, 3.0)),
                calibration=CalibrationSpec(powers=(0.0, 1.0, 2.0)),
            )

    def test_shared_powers_validation(self):
        """Both sections reject bad powers with section-named messages."""
        with pytest.raises(ParameterError, match="calibration.powers"):
            CalibrationSpec(powers=())
        with pytest.raises(ParameterError, match="fit.powers"):
            FitSpec(powers=())
        with pytest.raises(ParameterError, match="calibration.powers"):
            CalibrationSpec(powers=(-1.0,))
        with pytest.raises(ParameterError, match="fit.powers"):
            FitSpec(powers=(-1.0,))


class TestCalibrateStage:
    def test_stage_is_noop_without_section(self):
        result = run_scenario(base_spec())
        assert result.calibration is None
        assert "calibrate" not in result.report()["stages"]

    def test_stage_populates_result(self):
        result = run_scenario(
            base_spec(calibration=CalibrationSpec(restarts=2))
        )
        assert result.calibration is not None
        report = result.calibration.report
        assert report.flow_count > 0
        assert report.family in CalibrationSpec().families
        stages = result.report()["stages"]
        assert stages["calibrate"]["calibration"]["family"] == report.family

    def test_stage_closed_loop(self):
        # a lognormal size law keeps the closed loop statistically
        # resolvable at ~50k synthetic flows; the paper's alpha~1.1
        # Pareto would need millions of samples to pin E[S] to 2%
        spec = ScenarioSpec(
            name="calib-loop",
            seed=3,
            workload=WorkloadSpec(
                target_mean_rate_bps=30e6,
                link_capacity_bps=622.08e6,
                duration=20.0,
                sizes=SizeDistributionSpec(
                    kind="lognormal", median=3000.0, sigma=0.8
                ),
            ),
            calibration=CalibrationSpec(restarts=2, validate=True),
        )
        result = run_scenario(spec)
        closed = result.calibration.closed_loop
        assert closed is not None
        assert closed.passed, closed.failures
