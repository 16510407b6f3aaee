"""Gaussian approximation of the total rate — section V-E.

With many simultaneously active flows the Central Limit Theorem justifies
approximating the marginal law of ``R(t)`` by a normal with the model's
mean and variance.  The paper uses this for dimensioning: pick a link
capacity ``C = E[R] + F(epsilon) * sigma`` so that the rate exceeds ``C``
for less than a fraction ``epsilon`` of time, where ``F`` is the standard
normal quantile function.

The approximation also yields the "70% of time within one sigma of the
mean" rule of thumb quoted in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .._util import check_positive, check_probability

__all__ = ["GaussianApproximation", "EdgeworthApproximation", "normal_quantile"]

_SQRT_2PI = np.sqrt(2 * np.pi)


def _standard_pdf(z):
    """Standard normal density, with ``scipy.stats.norm``'s arithmetic."""
    return np.exp(-z**2 / 2.0) / _SQRT_2PI


def normal_quantile(epsilon: float) -> float:
    """``F(epsilon)``: the paper's normal quantile, ``P(N > F) = epsilon``.

    E.g. ``F(0.05) ~= 1.64``, ``F(0.01) ~= 2.33``.
    """
    epsilon = check_probability("epsilon", epsilon)
    return float(ndtri(1.0 - epsilon))


@dataclass(frozen=True)
class GaussianApproximation:
    """Normal approximation ``N(mean, std^2)`` of the stationary total rate."""

    mean: float
    std: float

    def __post_init__(self) -> None:
        check_positive("mean", self.mean)
        check_positive("std", self.std)

    @property
    def variance(self) -> float:
        return self.std**2

    @property
    def coefficient_of_variation(self) -> float:
        return self.std / self.mean

    def pdf(self, x) -> np.ndarray:
        """Approximate probability density of the total rate."""
        return _standard_pdf(self.standardize(x)) / self.std

    def cdf(self, x) -> np.ndarray:
        """``P(R <= x)`` under the approximation."""
        return ndtr(self.standardize(x))

    def tail_probability(self, level: float) -> float:
        """``P(R > level)`` — the congestion probability for capacity ``level``."""
        return float(ndtr(-self.standardize(level)))

    def quantile(self, p: float) -> float:
        """Value exceeded with probability ``1 - p``."""
        p = check_probability("p", p)
        return float(ndtri(p) * self.std + self.mean)

    def required_capacity(self, epsilon: float) -> float:
        """Capacity ``E[R] + F(epsilon) sigma`` with congestion fraction <= epsilon.

        This is the section VII-A provisioning rule.
        """
        return self.mean + normal_quantile(epsilon) * self.std

    def symmetric_band(self, probability: float = 0.70) -> tuple[float, float]:
        """Interval ``[mean - k sigma, mean + k sigma]`` holding ``probability``.

        With the default 0.70 this is the paper's "70% of time the rate is
        within one standard deviation of its mean" statement (k ~= 1.04).
        """
        probability = check_probability("probability", probability)
        k = float(ndtri(0.5 + probability / 2.0))
        return self.mean - k * self.std, self.mean + k * self.std

    def standardize(self, x) -> np.ndarray:
        """``(x - mean) / std`` — convenience for anomaly scoring."""
        return (np.asarray(x, dtype=float) - self.mean) / self.std


@dataclass(frozen=True)
class EdgeworthApproximation:
    """Gaussian approximation refined with cumulants 3-4 (Edgeworth).

    The shot noise is right-skewed (all shots are non-negative), with
    skewness shrinking as ``1/sqrt(lambda)``.  On lightly multiplexed
    links the plain Gaussian of section V-E under-estimates the upper
    tail; the Edgeworth series corrects the pdf/cdf with the model's
    skewness and excess kurtosis (available in closed form from
    Corollary 3 / :func:`repro.core.lst.cumulants`), and the
    Cornish-Fisher expansion corrects the provisioning quantile.
    """

    mean: float
    std: float
    skewness: float = 0.0
    excess_kurtosis: float = 0.0

    def __post_init__(self) -> None:
        check_positive("mean", self.mean)
        check_positive("std", self.std)

    @classmethod
    def from_cumulants(cls, k1: float, k2: float, k3: float, k4: float):
        """Build from the first four cumulants of the total rate."""
        std = float(np.sqrt(k2))
        return cls(
            mean=float(k1),
            std=std,
            skewness=float(k3 / k2**1.5),
            excess_kurtosis=float(k4 / k2**2),
        )

    @property
    def gaussian(self) -> GaussianApproximation:
        """The order-0 (plain Gaussian) version of this approximation."""
        return GaussianApproximation(self.mean, self.std)

    def _z(self, x) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.mean) / self.std

    def pdf(self, x) -> np.ndarray:
        """Edgeworth-corrected density (clipped at zero: the series is an
        asymptotic expansion and can dip negative deep in the tails)."""
        z = self._z(x)
        g1, g2 = self.skewness, self.excess_kurtosis
        he3 = z**3 - 3 * z
        he4 = z**4 - 6 * z**2 + 3
        he6 = z**6 - 15 * z**4 + 45 * z**2 - 15
        correction = (
            1.0 + g1 / 6.0 * he3 + g2 / 24.0 * he4 + g1**2 / 72.0 * he6
        )
        base = _standard_pdf(z) / self.std
        return np.maximum(base * correction, 0.0)

    def cdf(self, x) -> np.ndarray:
        z = self._z(x)
        g1, g2 = self.skewness, self.excess_kurtosis
        he2 = z**2 - 1
        he3 = z**3 - 3 * z
        he5 = z**5 - 10 * z**3 + 15 * z
        correction = (
            g1 / 6.0 * he2 + g2 / 24.0 * he3 + g1**2 / 72.0 * he5
        )
        return np.clip(ndtr(z) - _standard_pdf(z) * correction, 0.0, 1.0)

    def tail_probability(self, level: float) -> float:
        """``P(R > level)`` with the skewness-aware tail."""
        return float(1.0 - self.cdf(level))

    def required_capacity(self, epsilon: float) -> float:
        """Cornish-Fisher-corrected provisioning quantile.

        For right-skewed traffic this exceeds the Gaussian capacity — the
        plain section V-E rule slightly under-provisions small links.
        """
        z = normal_quantile(epsilon)
        g1, g2 = self.skewness, self.excess_kurtosis
        z_cf = (
            z
            + g1 / 6.0 * (z**2 - 1)
            + g2 / 24.0 * (z**3 - 3 * z)
            - g1**2 / 36.0 * (2 * z**3 - 5 * z)
        )
        return self.mean + z_cf * self.std
