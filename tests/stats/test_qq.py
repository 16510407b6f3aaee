"""Tests for repro.stats.qq."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.stats import exponentiality, qq_exponential
from repro.stats.qq import linear_correlation


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

    def test_validation(self):
        with pytest.raises(ParameterError):
            qq_exponential([1.0, 2.0])  # too few
        with pytest.raises(ParameterError):
            qq_exponential(np.full(100, -1.0))


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


class TestLinearCorrelation:
    def test_constant_side_is_zero(self):
        line = np.linspace(0.0, 1.0, 20)
        assert linear_correlation(np.full(20, 3.0), line) == 0.0
        assert linear_correlation(line, np.full(20, 3.0)) == 0.0

    def test_pearson_otherwise(self):
        x = np.linspace(0.0, 1.0, 20)
        assert linear_correlation(x, 2.0 * x + 1.0) == pytest.approx(1.0)
        assert linear_correlation(x, -x) == pytest.approx(-1.0)
