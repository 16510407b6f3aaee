"""Fitter recovery, model selection, and fit determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.calibration import (
    calibrate_sizes,
    fit_all_families,
    fit_family,
    grouped_log_likelihood,
    select_best,
)
from repro.netsim.sizes import size_law
from repro.exceptions import ParameterError


def accumulate(family, params, n=40000, seed=5, duration=60.0):
    dist = size_law(family, params)
    sizes = dist.rvs(n, np.random.default_rng(seed))
    return calibrate_sizes(np.maximum(sizes, 1.0), duration=duration)


class TestRecovery:
    def test_lognormal(self):
        acc = accumulate("lognormal", {"median": 3000.0, "sigma": 0.8})
        fit = fit_family(acc, "lognormal")
        assert fit.params["median"] == pytest.approx(3000.0, rel=0.05)
        assert fit.params["sigma"] == pytest.approx(0.8, rel=0.05)

    def test_exponential_mean_is_exact(self):
        acc = accumulate("exponential", {"mean_bytes": 9000.0})
        fit = fit_family(acc, "exponential")
        # the exponential MLE is the integer-exact accumulator mean
        assert fit.params["mean_bytes"] == acc.mean_size

    def test_pareto_alpha(self):
        acc = accumulate(
            "pareto", {"alpha": 1.4, "minimum": 300.0, "maximum": 1e7}
        )
        fit = fit_family(acc, "pareto")
        assert fit.params["alpha"] == pytest.approx(1.4, rel=0.08)

    def test_mixture_recovery(self):
        truth = {
            "body_weight": 0.9, "median": 3000.0, "sigma": 0.8,
            "alpha": 2.2, "minimum": 3e4, "maximum": 2e6,
        }
        acc = accumulate("lognormal_pareto", truth, n=60000, seed=7)
        fit = fit_family(acc, "lognormal_pareto", restarts=4, seed=3)
        assert fit.params["body_weight"] == pytest.approx(0.9, abs=0.05)
        assert fit.params["median"] == pytest.approx(3000.0, rel=0.1)
        assert fit.params["sigma"] == pytest.approx(0.8, rel=0.15)
        assert fit.params["alpha"] == pytest.approx(2.2, rel=0.25)
        assert fit.ks_statistic < 0.02
        assert fit.tail_qq_correlation > 0.98


class TestSelection:
    def test_generating_family_wins(self):
        truth = {
            "body_weight": 0.9, "median": 3000.0, "sigma": 0.8,
            "alpha": 2.2, "minimum": 3e4, "maximum": 2e6,
        }
        acc = accumulate("lognormal_pareto", truth, n=60000, seed=7)
        fits = fit_all_families(acc, restarts=4, seed=3)
        assert select_best(fits, "bic").family == "lognormal_pareto"
        assert select_best(fits, "aic").family == "lognormal_pareto"
        assert select_best(fits, "loglik").family == "lognormal_pareto"
        assert select_best(fits, "ks").family == "lognormal_pareto"

    def test_lognormal_wins_on_lognormal_data(self):
        acc = accumulate("lognormal", {"median": 3000.0, "sigma": 0.8})
        fits = fit_all_families(
            acc, ("lognormal", "pareto", "exponential"), seed=1
        )
        assert select_best(fits, "bic").family == "lognormal"

    def test_select_validation(self):
        acc = accumulate("exponential", {"mean_bytes": 9000.0})
        fits = fit_all_families(acc, ("exponential",))
        with pytest.raises(ParameterError, match="criterion"):
            select_best(fits, "magic")
        with pytest.raises(ParameterError, match="no family"):
            select_best(())

    def test_unknown_family_fit(self):
        acc = accumulate("exponential", {"mean_bytes": 9000.0})
        with pytest.raises(ParameterError, match="weibull"):
            fit_family(acc, "weibull")


class TestDeterminism:
    def test_same_seed_same_params(self):
        truth = {
            "body_weight": 0.85, "median": 2000.0, "sigma": 0.7,
            "alpha": 1.8, "minimum": 2e4, "maximum": 1e6,
        }
        acc = accumulate("lognormal_pareto", truth, n=30000, seed=2)
        first = fit_family(acc, "lognormal_pareto", restarts=3, seed=9)
        second = fit_family(acc, "lognormal_pareto", restarts=3, seed=9)
        assert first == second  # bitwise: identical floats throughout

    def test_fit_depends_only_on_accumulator(self):
        """Any chunk/workers/backend path yields the identical fit."""
        truth = {"median": 4000.0, "sigma": 1.0}
        dist = size_law("lognormal", truth)
        sizes = np.maximum(
            dist.rvs(20000, np.random.default_rng(4)), 1.0
        )
        serial = calibrate_sizes(sizes, duration=60.0)
        pooled = calibrate_sizes(
            sizes, duration=60.0, chunk=333, workers=4, backend="thread"
        )
        assert fit_family(serial, "lognormal") == fit_family(
            pooled, "lognormal"
        )

    def test_restarts_validation(self):
        acc = accumulate("exponential", {"mean_bytes": 9000.0})
        with pytest.raises(ParameterError, match="restarts"):
            fit_family(acc, "lognormal_pareto", restarts=0)


class TestHostileSeedAndRestarts:
    """``restarts`` and ``seed`` are checked once, in ``fit_family``."""

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"restarts": 2.5}, "restarts must be an integer"),
            ({"restarts": "4"}, "restarts must be an integer"),
            ({"restarts": 0}, "restarts must be >= 1"),
            ({"seed": 1.5}, "seed must be an integer"),
            ({"seed": -1}, "seed must be >= 0"),
        ],
    )
    @pytest.mark.parametrize("family", ["lognormal_pareto", "exponential"])
    def test_fit_family_raises_parameter_error(self, family, kwargs, match):
        acc = accumulate("exponential", {"mean_bytes": 9000.0}, n=2000)
        with pytest.raises(ParameterError, match=match):
            fit_family(acc, family, **kwargs)

    def test_numpy_integers_are_accepted(self):
        acc = accumulate("exponential", {"mean_bytes": 9000.0}, n=2000)
        fit = fit_family(
            acc, "lognormal_pareto", restarts=np.int64(2), seed=np.uint32(3)
        )
        assert fit == fit_family(acc, "lognormal_pareto", restarts=2, seed=3)

    @pytest.mark.parametrize(
        "kwargs", [{"seed": -1}, {"seed": 1.5}, {"restarts": 2.5}]
    )
    def test_calibrate_entry_points_raise_parameter_error(
        self, kwargs, tmp_path
    ):
        from repro.calibration import (
            calibrate_accumulator,
            calibrate_archive,
        )
        from repro.interop import write_netflow5

        from .test_golden_report import golden_records

        acc = accumulate("exponential", {"mean_bytes": 9000.0}, n=2000)
        with pytest.raises(ParameterError):
            calibrate_accumulator(acc, **kwargs)
        archive = tmp_path / "golden.nf5"
        write_netflow5(golden_records(), archive)
        with pytest.raises(ParameterError):
            calibrate_archive(archive, **kwargs)


class TestGroupedLikelihood:
    def test_truth_beats_perturbed(self):
        truth = {"median": 3000.0, "sigma": 0.8}
        acc = accumulate("lognormal", truth)
        ll_truth = grouped_log_likelihood(acc, "lognormal", truth)
        ll_off = grouped_log_likelihood(
            acc, "lognormal", {"median": 6000.0, "sigma": 0.4}
        )
        assert ll_truth > ll_off
