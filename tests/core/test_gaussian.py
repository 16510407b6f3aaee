"""Tests for repro.core.gaussian: the section V-E approximation."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.core import EdgeworthApproximation, GaussianApproximation, normal_quantile
from repro.exceptions import ParameterError


@pytest.fixture()
def gauss():
    return GaussianApproximation(mean=1e6, std=1e5)


class TestNormalQuantile:
    def test_known_values(self):
        assert normal_quantile(0.05) == pytest.approx(1.6449, abs=1e-3)
        assert normal_quantile(0.01) == pytest.approx(2.3263, abs=1e-3)
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_out_of_range(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ParameterError):
                normal_quantile(bad)


class TestGaussianApproximation:
    def test_pdf_peaks_at_mean(self, gauss):
        x = np.array([gauss.mean - gauss.std, gauss.mean, gauss.mean + gauss.std])
        pdf = gauss.pdf(x)
        assert pdf[1] > pdf[0]
        assert pdf[1] > pdf[2]

    def test_cdf_half_at_mean(self, gauss):
        assert gauss.cdf(gauss.mean) == pytest.approx(0.5)

    def test_tail_probability_complements_cdf(self, gauss):
        level = gauss.mean + 2 * gauss.std
        assert gauss.tail_probability(level) == pytest.approx(
            1.0 - float(gauss.cdf(level))
        )

    def test_quantile_inverts_cdf(self, gauss):
        q = gauss.quantile(0.9)
        assert gauss.cdf(q) == pytest.approx(0.9)

    def test_required_capacity(self, gauss):
        cap = gauss.required_capacity(0.05)
        assert cap == pytest.approx(gauss.mean + 1.6449 * gauss.std, rel=1e-3)
        assert gauss.tail_probability(cap) == pytest.approx(0.05, rel=1e-3)

    def test_required_capacity_monotone_in_epsilon(self, gauss):
        assert gauss.required_capacity(0.001) > gauss.required_capacity(0.1)

    def test_seventy_percent_band(self, gauss):
        """The paper's rule: ~70% of time within one sigma of the mean."""
        lo, hi = gauss.symmetric_band(0.70)
        k = (hi - gauss.mean) / gauss.std
        assert k == pytest.approx(1.036, abs=1e-3)
        assert lo == pytest.approx(2 * gauss.mean - hi)

    def test_band_mass(self, gauss):
        lo, hi = gauss.symmetric_band(0.9)
        mass = float(gauss.cdf(hi) - gauss.cdf(lo))
        assert mass == pytest.approx(0.9, rel=1e-9)

    def test_standardize(self, gauss):
        z = gauss.standardize([gauss.mean, gauss.mean + 3 * gauss.std])
        np.testing.assert_allclose(z, [0.0, 3.0])

    def test_cov(self, gauss):
        assert gauss.coefficient_of_variation == pytest.approx(0.1)

    def test_rejects_nonpositive_std(self):
        with pytest.raises(ParameterError):
            GaussianApproximation(1e6, 0.0)


class TestScipyNormBits:
    """``scipy.special`` forms equal the ``scipy.stats.norm`` ones bit for bit."""

    Z = np.r_[-40.0, -8.0, np.linspace(-6.1, 6.3, 201), 8.0, 40.0]
    PROBS = (1e-12, 1e-6, 0.001, 0.05, 0.3, 0.5, 0.7, 0.95, 0.999, 1 - 1e-9)
    LAWS = (
        (1e6, 1e5, 0.0, 0.0),
        (1.0, 3.0, 0.4, 0.2),
        (1e9, 2.5e7, 0.8, -0.3),
        (7.5e-3, 1e-4, -0.1, 1.5),
    )

    def test_normal_quantile(self):
        for p in self.PROBS:
            assert normal_quantile(p) == float(stats.norm.ppf(1.0 - p))

    @pytest.mark.parametrize("mean, std, skew, kurt", LAWS)
    def test_gaussian(self, mean, std, skew, kurt):
        g = GaussianApproximation(mean, std)
        x = mean + std * self.Z
        assert np.array_equal(g.pdf(x), stats.norm.pdf(x, mean, std))
        assert np.array_equal(g.cdf(x), stats.norm.cdf(x, mean, std))
        for level in x:
            assert g.tail_probability(level) == float(stats.norm.sf(level, mean, std))
        for p in self.PROBS:
            assert g.quantile(p) == float(stats.norm.ppf(p, mean, std))
            k = float(stats.norm.ppf(0.5 + p / 2.0))
            assert g.symmetric_band(p) == (mean - k * std, mean + k * std)
            assert g.required_capacity(p) == mean + float(
                stats.norm.ppf(1.0 - p)
            ) * std

    @pytest.mark.parametrize("mean, std, skew, kurt", LAWS)
    def test_edgeworth(self, mean, std, skew, kurt):
        e = EdgeworthApproximation(mean, std, skew, kurt)
        x = mean + std * self.Z
        z = (x - mean) / std
        he2, he3 = z**2 - 1, z**3 - 3 * z
        he4 = z**4 - 6 * z**2 + 3
        he5 = z**5 - 10 * z**3 + 15 * z
        he6 = z**6 - 15 * z**4 + 45 * z**2 - 15
        pdf = stats.norm.pdf(z) / std * (
            1.0 + skew / 6.0 * he3 + kurt / 24.0 * he4 + skew**2 / 72.0 * he6
        )
        cdf = stats.norm.cdf(z) - stats.norm.pdf(z) * (
            skew / 6.0 * he2 + kurt / 24.0 * he3 + skew**2 / 72.0 * he5
        )
        assert np.array_equal(e.pdf(x), np.maximum(pdf, 0.0))
        assert np.array_equal(e.cdf(x), np.clip(cdf, 0.0, 1.0))
        for level, c in zip(x, np.clip(cdf, 0.0, 1.0)):
            assert e.tail_probability(level) == float(1.0 - c)
        for p in self.PROBS:
            q = float(stats.norm.ppf(1.0 - p))
            z_cf = (
                q
                + skew / 6.0 * (q**2 - 1)
                + kurt / 24.0 * (q**3 - 3 * q)
                - skew**2 / 36.0 * (2 * q**3 - 5 * q)
            )
            assert e.required_capacity(p) == mean + z_cf * std
