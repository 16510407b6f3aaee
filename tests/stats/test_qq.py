"""Tests for repro.stats.qq."""

from __future__ import annotations

import json

import numpy as np
import pytest
from scipy import stats

from repro.exceptions import ParameterError
from repro.stats import exponentiality, qq_exponential
from repro.stats.qq import EXACT_KS_MAX_SAMPLES, linear_correlation


class TestQQExponential:
    def test_exponential_sample_on_diagonal(self):
        rng = np.random.default_rng(0)
        x = rng.exponential(2.0, 100_000)
        qq = qq_exponential(x)
        assert qq.correlation > 0.999
        # the p ~ 0.995 tail quantile is noisy even at n = 1e5
        assert qq.max_relative_deviation() < 0.2

    def test_heavy_tail_departs(self):
        rng = np.random.default_rng(1)
        x = rng.pareto(1.3, 100_000) + 0.1
        qq = qq_exponential(x)
        assert qq.max_relative_deviation() > 0.5

    def test_normalized_axes_end_at_one(self):
        rng = np.random.default_rng(2)
        qq = qq_exponential(rng.exponential(1.0, 1000))
        assert qq.normalized_empirical[-1] == pytest.approx(1.0)
        assert qq.normalized_theoretical[-1] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "samples, kwargs",
        [
            ([1.0, 2.0], {}),  # too few
            (np.full(100, -1.0), {}),
            (np.arange(100.0), {"n_points": 0}),
            (np.arange(100.0), {"n_points": 1}),
            (np.arange(100.0), {"n_points": -3}),
            (np.arange(100.0), {"n_points": 2.5}),
            (np.arange(100.0), {"n_points": "7"}),
            (np.arange(100.0), {"n_points": None}),
            (np.arange(100.0), {"p_max": 1.0}),
        ],
    )
    def test_validation(self, samples, kwargs):
        with pytest.raises(ParameterError):
            qq_exponential(samples, **kwargs)

    def test_accepts_numpy_integer_points(self):
        qq = qq_exponential(np.arange(1.0, 101.0), n_points=np.int64(2))
        assert qq.theoretical.shape == (2,)


class TestExponentiality:
    def test_accepts_exponential(self):
        rng = np.random.default_rng(3)
        report = exponentiality(rng.exponential(0.5, 50_000))
        assert report.plausibly_exponential
        assert report.cov == pytest.approx(1.0, abs=0.05)

    def test_rejects_constant_gaps(self):
        report = exponentiality(np.full(1000, 2.0) + np.arange(1000) * 1e-9)
        assert not report.plausibly_exponential  # CoV ~ 0

    def test_constant_sample_reports_zero_correlation(self):
        report = exponentiality(np.full(60, 2.0))
        assert report.qq_correlation == 0.0
        assert not report.plausibly_exponential
        json.dumps(report.__dict__, allow_nan=False)

    def test_rejects_heavy_tail(self):
        rng = np.random.default_rng(4)
        report = exponentiality(rng.pareto(1.1, 50_000) + 0.01)
        assert not report.plausibly_exponential

    @pytest.mark.parametrize(
        "samples",
        [
            np.full(100, -1.0),
            np.r_[np.full(99, 1.0), -1e-12],  # positive mean, one negative
            np.zeros(100),
            np.r_[np.ones(99), np.nan],
            np.arange(9.0),
        ],
    )
    def test_hostile_samples(self, samples):
        with pytest.raises(ParameterError):
            exponentiality(samples)

    def test_method_follows_sample_size(self):
        rng = np.random.default_rng(5)
        small = exponentiality(rng.exponential(1.0, EXACT_KS_MAX_SAMPLES))
        large = exponentiality(rng.exponential(1.0, EXACT_KS_MAX_SAMPLES + 1))
        assert small.ks_method == "exact"
        assert large.ks_method == "asymptotic"


def _sample(kind: str, n: int) -> np.ndarray:
    rng = np.random.default_rng([n, len(kind)])
    if kind == "exponential":
        return rng.exponential(0.02, n)
    if kind == "pareto":
        return rng.pareto(1.5, n) + 0.01
    if kind == "rounded":
        return np.round(rng.exponential(1.0, n), 1) + 0.1  # many ties
    return 2.0 + rng.uniform(0.0, 1e-9, n)  # near-constant


@pytest.mark.parametrize("kind", ["exponential", "pareto", "rounded", "near-constant"])
@pytest.mark.parametrize("n", [10, 140, 141, 5_000, 10_000, 10_001, 118_614])
def test_bits_match_scipy(n, kind):
    """The numpy KS test and QQ quantiles equal scipy's, bit for bit."""
    x = _sample(kind, n)
    method = "exact" if n <= EXACT_KS_MAX_SAMPLES else "asymp"
    expected = stats.kstest(x, "expon", args=(0.0, x.mean()), method=method)
    report = exponentiality(x)
    assert report.ks_statistic == float(expected.statistic)
    assert report.ks_pvalue == float(expected.pvalue)
    assert report.ks_method == ("exact" if method == "exact" else "asymptotic")
    qq = qq_exponential(x)
    assert np.array_equal(
        qq.theoretical, stats.expon.ppf(qq.probabilities, scale=float(x.mean()))
    )


class TestLinearCorrelation:
    def test_constant_side_is_zero(self):
        line = np.linspace(0.0, 1.0, 20)
        assert linear_correlation(np.full(20, 3.0), line) == 0.0
        assert linear_correlation(line, np.full(20, 3.0)) == 0.0

    def test_pearson_otherwise(self):
        x = np.linspace(0.0, 1.0, 20)
        assert linear_correlation(x, 2.0 * x + 1.0) == pytest.approx(1.0)
        assert linear_correlation(x, -x) == pytest.approx(-1.0)
