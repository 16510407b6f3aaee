"""Size-law table, CDF/PPF consistency, scale closure, hostile params."""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro.calibration import (
    CALIBRATION_FAMILIES,
    SELECTION_CRITERIA,
    CalibrationReport,
)
from repro.calibration.fitters import _FITTERS
from repro.exceptions import ParameterError
from repro.flows import LognormalParetoMixture
from repro.netsim.sizes import (
    SIZE_LAWS,
    BoundedPareto,
    Exponential,
    LogNormal,
    size_law,
)
from repro.pipeline import ScenarioSpec

PARAMS = {
    "lognormal": {"median": 3000.0, "sigma": 0.8},
    "pareto": {"alpha": 1.4, "minimum": 300.0, "maximum": 1e7},
    "exponential": {"mean_bytes": 9000.0},
    "lognormal_pareto": {
        "body_weight": 0.9, "median": 3000.0, "sigma": 0.8,
        "alpha": 2.2, "minimum": 3e4, "maximum": 2e6,
    },
}


class TestRegistry:
    def test_all_families_registered(self):
        assert CALIBRATION_FAMILIES == tuple(SIZE_LAWS)
        assert set(_FITTERS) == set(SIZE_LAWS)
        for name in CALIBRATION_FAMILIES:
            names = tuple(f.name for f in fields(SIZE_LAWS[name]))
            assert names == tuple(PARAMS[name])
            # the fitter's count is of FREE parameters (the mixture pins
            # its maximum to the sample max, so it declares 5 of 6)
            n_params, _ = _FITTERS[name]
            assert 0 < n_params <= len(names)

    def test_unknown_family(self):
        with pytest.raises(ParameterError, match="weibull"):
            size_law("weibull", {})

    def test_missing_and_extra_params(self):
        with pytest.raises(ParameterError, match="sigma"):
            size_law("lognormal", {"median": 3000.0})
        with pytest.raises(ParameterError, match="alpha"):
            size_law("lognormal", {**PARAMS["lognormal"], "alpha": 3.0})

    def test_size_law_types(self):
        assert isinstance(size_law("lognormal", PARAMS["lognormal"]), LogNormal)
        assert isinstance(size_law("pareto", PARAMS["pareto"]), BoundedPareto)
        assert isinstance(
            size_law("exponential", PARAMS["exponential"]), Exponential
        )
        assert isinstance(
            size_law("lognormal_pareto", PARAMS["lognormal_pareto"]),
            LognormalParetoMixture,
        )


class TestCdfPpf:
    @pytest.mark.parametrize("family", CALIBRATION_FAMILIES)
    def test_cdf_monotone_and_bounded(self, family):
        x = np.logspace(0, 8, 200)
        cdf = size_law(family, PARAMS[family]).cdf(x)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert np.all((cdf >= 0.0) & (cdf <= 1.0))

    @pytest.mark.parametrize("family", CALIBRATION_FAMILIES)
    def test_ppf_inverts_cdf(self, family):
        law = size_law(family, PARAMS[family])
        q = np.array([0.05, 0.25, 0.5, 0.75, 0.95, 0.995])
        np.testing.assert_allclose(law.cdf(law.ppf(q)), q, atol=2e-3)

    @pytest.mark.parametrize("family", CALIBRATION_FAMILIES)
    def test_ppf_rejects_quantiles_outside_open_unit_interval(self, family):
        law = size_law(family, PARAMS[family])
        for q in (0.0, 1.0, [0.5, 1.2]):
            with pytest.raises(ParameterError, match="quantiles"):
                law.ppf(q)

    @pytest.mark.parametrize("family", CALIBRATION_FAMILIES)
    def test_cdf_matches_sample(self, family):
        law = size_law(family, PARAMS[family])
        rng = np.random.default_rng(11)
        sample = law.rvs(40000, rng)
        x = np.quantile(sample, [0.2, 0.5, 0.8])
        empirical = np.searchsorted(np.sort(sample), x) / sample.size
        np.testing.assert_allclose(law.cdf(x), empirical, atol=0.02)


class TestScaleClosure:
    """Scaling the length parameters by c rescales the law exactly."""

    @pytest.mark.parametrize("family", CALIBRATION_FAMILIES)
    @pytest.mark.parametrize("factor", [0.5, 0.93, 2.0])
    def test_cdf_closure(self, family, factor):
        law = size_law(family, PARAMS[family])
        x = np.logspace(1, 7, 100)
        np.testing.assert_allclose(
            law.scaled(factor).cdf(x * factor),
            law.cdf(x),
            rtol=1e-12, atol=1e-12,
        )

    def test_mean_scales(self):
        for family in CALIBRATION_FAMILIES:
            law = size_law(family, PARAMS[family])
            assert law.scaled(0.75).mean() == pytest.approx(0.75 * law.mean())

    @pytest.mark.parametrize("factor", [0.0, -2.0])
    def test_rejects_non_positive_factor(self, factor):
        with pytest.raises(ParameterError, match="scale factor"):
            size_law("lognormal", PARAMS["lognormal"]).scaled(factor)


NAN, INF = float("nan"), float("inf")

#: (family, params) pairs every entry point must refuse.
HOSTILE = [
    ("lognormal", {"median": NAN, "sigma": 0.5}),
    ("lognormal", {"median": 3000.0, "sigma": INF}),
    ("lognormal", {"median": 3000.0, "sigma": 0.5, "alpha": 3.0}),
    ("lognormal", {"median": 3000.0}),
    ("pareto", {"alpha": NAN, "minimum": 300.0, "maximum": 1e7}),
    ("pareto", {"alpha": 1.4, "minimum": 300.0, "maximum": INF}),
    ("exponential", {"mean_bytes": NAN}),
    ("exponential", {"mean_bytes": -INF}),
    ("exponential", {"mean_bytes": "9000"}),
    ("lognormal_pareto", {**PARAMS["lognormal_pareto"], "body_weight": NAN}),
    ("lognormal_pareto", {**PARAMS["lognormal_pareto"], "maximum": INF}),
    ("weibull", {"shape": 1.5}),
]


class TestHostileParams:
    @pytest.mark.parametrize("family, params", HOSTILE)
    def test_size_law(self, family, params):
        with pytest.raises(ParameterError):
            size_law(family, params)

    @pytest.mark.parametrize("family, params", HOSTILE)
    def test_spec_json(self, family, params):
        text = json.dumps(
            {
                "name": "hostile",
                "workload": {
                    "target_mean_rate_bps": 30e6,
                    "link_capacity_bps": 622.08e6,
                    "duration": 20.0,
                    "sizes": {"kind": family, **params},
                },
            }
        )
        with pytest.raises(ParameterError):
            ScenarioSpec.from_json(text)

    @pytest.mark.parametrize("family, params", HOSTILE)
    def test_calibration_report(self, family, params):
        data = json.loads(
            Path(__file__).with_name("golden_report.json").read_text()
        )
        data.update(family=family, params=params)
        with pytest.raises(ParameterError):
            CalibrationReport.from_dict(data).to_scenario_spec()


class TestLiteralMirrors:
    """The import-light literal in pipeline.spec stays pinned to the
    canonical tuple in repro.calibration."""

    def test_selection_criteria_mirror(self):
        from repro.pipeline.spec import SELECTION_CRITERIA as mirrored

        assert mirrored == SELECTION_CRITERIA
