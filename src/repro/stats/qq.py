"""Quantile-quantile diagnostics against the exponential law (Figures 3-4).

The paper validates Assumption 1 (Poisson arrivals) with qq-plots of flow
inter-arrival times against the exponential distribution — "a stricter
test on the tail of the distributions" than histograms.  This module
produces the plot data and scalar goodness summaries.

The one-sample Kolmogorov-Smirnov test against Exponential(mean) is
computed here in numpy: a sort and one CDF pass give the same statistic
``D`` as ``scipy.stats.kstest``, bit for bit.  Its p-value is scipy's
exact Kolmogorov law up to :data:`EXACT_KS_MAX_SAMPLES` (10,000) samples
and the asymptotic law ``kolmogorov(D * sqrt(n))`` above.  The exact law
is an O(n) Smirnov sum: at a p-value near 1e-5 it costs ~12 ms at
n = 10^4 and ~150 ms (a fifth of a pipeline run) on a full-rate link's
1.2 * 10^5 inter-arrival gaps, while the asymptotic law costs
microseconds and is within 2% of it at n = 10^4 and 0.5% at
1.2 * 10^5.  ``ExponentialityReport.ks_method`` says which law a report
holds.  ``scipy.stats`` is imported only on the exact branch, so
importing this module does not load it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy import special

from .._util import as_1d_float_array
from ..exceptions import ParameterError

__all__ = [
    "QQData",
    "qq_exponential",
    "exponentiality",
    "linear_correlation",
    "EXACT_KS_MAX_SAMPLES",
]

#: Largest sample whose KS p-value is the exact Kolmogorov law; larger
#: samples get the asymptotic law (see the module docstring).
EXACT_KS_MAX_SAMPLES = 10_000


def linear_correlation(x, y) -> float:
    """Pearson r of two QQ axes; 0.0 when either side is constant.

    A constant axis carries no linear relation to measure (Pearson r is
    0/0 there), so it scores as no match rather than NaN.
    """
    if np.std(x) < 1e-12 or np.std(y) < 1e-12:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


@dataclass(frozen=True)
class QQData:
    """QQ-plot data: empirical quantiles vs fitted-exponential quantiles.

    ``normalized_*`` rescale both axes by the largest plotted quantile so
    the plot lives on [0, 1] x [0, 1] like the paper's figures; a perfect
    exponential fit lies on the diagonal.
    """

    probabilities: np.ndarray
    empirical: np.ndarray
    theoretical: np.ndarray

    @property
    def normalized_empirical(self) -> np.ndarray:
        return self.empirical / self.empirical[-1]

    @property
    def normalized_theoretical(self) -> np.ndarray:
        return self.theoretical / self.theoretical[-1]

    @property
    def correlation(self) -> float:
        """Pearson r of the qq points; 1.0 means a perfect linear match."""
        return linear_correlation(self.empirical, self.theoretical)

    def max_relative_deviation(self) -> float:
        """Largest |empirical - theoretical| / theoretical over the plot."""
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.abs(self.empirical - self.theoretical) / self.theoretical
        return float(np.nanmax(rel))


def qq_exponential(
    samples, n_points: int = 100, *, p_max: float = 0.995
) -> QQData:
    """QQ data of ``samples`` against Exponential(mean of samples).

    ``p_max`` bounds the highest plotted probability: the paper plots deep
    into the tail but the very last order statistics are pure noise.
    """
    x = _nonnegative_samples(samples)
    if x.size < 10:
        raise ParameterError("need at least 10 samples for a qq-plot")
    try:
        n_points = operator.index(n_points)
    except TypeError:
        raise ParameterError(
            f"n_points must be an integer, got {n_points!r}"
        ) from None
    if n_points < 2:
        raise ParameterError(f"n_points must be >= 2, got {n_points}")
    if not 0.0 < p_max < 1.0:
        raise ParameterError("p_max must be in (0, 1)")
    probs = np.linspace(0.5 / n_points, p_max, n_points)
    empirical = np.quantile(x, probs)
    # Exponential(mean) quantile, as scipy.stats.expon.ppf computes it.
    theoretical = -special.log1p(-probs) * float(x.mean())
    return QQData(probabilities=probs, empirical=empirical, theoretical=theoretical)


@dataclass(frozen=True)
class ExponentialityReport:
    """Scalar summary of how exponential a positive sample looks."""

    ks_statistic: float
    ks_pvalue: float
    cov: float  # exponential => 1.0
    qq_correlation: float
    ks_method: str = "exact"  # or "asymptotic" above EXACT_KS_MAX_SAMPLES

    @property
    def plausibly_exponential(self) -> bool:
        """Loose screen: qq nearly linear and CoV near 1.

        The KS p-value is reported but not gated on: with tens of
        thousands of samples even tiny deviations are "significant", yet
        the paper's point is that the fit is close in practice.
        """
        return self.qq_correlation > 0.99 and 0.7 < self.cov < 1.3


def _nonnegative_samples(samples) -> np.ndarray:
    x = as_1d_float_array("samples", samples)
    if np.any(x < 0):
        raise ParameterError("inter-arrival samples must be >= 0")
    return x


def exponentiality(samples) -> ExponentialityReport:
    """Test a positive sample against the exponential distribution."""
    x = _nonnegative_samples(samples)
    if x.size < 10:
        raise ParameterError("need at least 10 samples")
    mean = float(x.mean())
    if mean <= 0:
        raise ParameterError("samples must have a positive mean")
    n = x.size
    # scipy.stats.kstest's two-sided D against expon(0, mean), same
    # arithmetic: special.expm1 (np.expm1 can differ in the last ulp).
    cdf = -special.expm1(-(np.sort(x) / mean))
    statistic = float(
        max(
            (np.arange(1.0, n + 1) / n - cdf).max(),
            (cdf - np.arange(0.0, n) / n).max(),
        )
    )
    if n > EXACT_KS_MAX_SAMPLES:
        method = "asymptotic"
        pvalue = float(special.kolmogorov(statistic * math.sqrt(n)))
    else:
        from scipy import stats

        method = "exact"
        pvalue = float(np.clip(stats.kstwo.sf(statistic, n), 0.0, 1.0))
    qq = qq_exponential(x)
    return ExponentialityReport(
        ks_statistic=statistic,
        ks_pvalue=pvalue,
        cov=float(x.std(ddof=1) / mean),
        qq_correlation=qq.correlation,
        ks_method=method,
    )
