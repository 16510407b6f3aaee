"""Measurement-based derivation of the shot shape — section V-D.

The power family has one free parameter ``b`` once the constraint
``integral X = S`` is imposed.  Matching the model variance

.. math::  \\sigma^2 = \\lambda \\frac{(b+1)^2}{2b+1} E[S^2/D]

to the *measured* variance ``sigma_hat^2`` gives, with
``kappa = sigma_hat^2 / (lambda E[S^2/D])``,

.. math::  \\hat b = (\\kappa - 1) + \\sqrt{\\kappa(\\kappa - 1)} ,

which is the estimator behind Figure 11 (histogram of ``b`` per 30-minute
interval; mean ~= 2 for 5-tuple flows).  Theorem 3 guarantees
``kappa >= 1`` in the fluid limit, but a finite averaging window ``Delta``
shrinks the measured variance (eq. 7), so real traces occasionally yield
``kappa < 1``; those fits are clipped to the rectangular shot and flagged.

:func:`fit_power_averaged` removes that bias by fitting ``b`` against the
Delta-averaged variance of eq. (7) instead of the instantaneous one — the
"better matching" correction described in section VI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import check_nonnegative, check_positive
from ..exceptions import FittingError
from .ensemble import FlowEnsemble
from .parameters import FlowStatistics
from .sampling import averaged_variance
from .shots import PowerShot, variance_shape_factor

__all__ = [
    "PowerFit",
    "solve_power",
    "fit_power_from_variance",
    "fit_power_from_cov",
    "fit_power_averaged",
]


@dataclass(frozen=True)
class PowerFit:
    """Result of fitting the power-shot exponent ``b``.

    Attributes
    ----------
    power:
        The fitted exponent ``b`` (possibly clipped, see ``clipped``).
    kappa:
        The measured variance ratio ``sigma_hat^2 / (lambda E[S^2/D])``.
    clipped:
        True when the raw estimate fell outside the valid domain
        (``kappa < 1``, explained by averaging; or beyond ``b_max``).
    """

    power: float
    kappa: float
    clipped: bool

    @property
    def shot(self) -> PowerShot:
        """The fitted shot object, ready to plug into the model."""
        return PowerShot(self.power)

    @property
    def shape_factor(self) -> float:
        """``(b+1)^2/(2b+1)`` of the fitted power."""
        return variance_shape_factor(self.power)


def solve_power(kappa: float) -> float:
    """Invert ``(b+1)^2/(2b+1) = kappa`` for ``b >= 0``.

    Sanity anchors: ``kappa = 1 -> b = 0``; ``4/3 -> 1``; ``9/5 -> 2``.
    """
    kappa = check_positive("kappa", kappa)
    if kappa < 1.0:
        # (b+1)^2/(2b+1) evaluates a couple of ulps below 1.0 for tiny
        # b, so absorb float noise at the rectangular bound and reject
        # only genuine Theorem 3 deficits
        if 1.0 - kappa > 1e-12:
            raise FittingError(
                f"kappa = {kappa:.4g} < 1 violates the Theorem 3 lower "
                "bound; clip to b = 0 or use fit_power_averaged to "
                "correct for the averaging window"
            )
        kappa = 1.0
    return (kappa - 1.0) + float(np.sqrt(kappa * (kappa - 1.0)))


def fit_power_from_variance(
    measured_variance: float,
    statistics: FlowStatistics,
    *,
    clip: bool = True,
) -> PowerFit:
    """Fit ``b`` from the measured variance of the total rate (section V-D)."""
    measured_variance = check_positive("measured_variance", measured_variance)
    kappa = measured_variance / (
        statistics.arrival_rate * statistics.mean_square_size_over_duration
    )
    if kappa < 1.0:
        if not clip:
            raise FittingError(
                f"kappa = {kappa:.4g} < 1 (Theorem 3); measured variance is "
                "below the rectangular-shot bound"
            )
        return PowerFit(power=0.0, kappa=kappa, clipped=True)
    return PowerFit(power=solve_power(kappa), kappa=kappa, clipped=False)


def fit_power_from_cov(
    measured_cov: float,
    statistics: FlowStatistics,
    *,
    clip: bool = True,
) -> PowerFit:
    """Fit ``b`` from the measured coefficient of variation (std/mean).

    Convenience wrapper: the paper reports CoV rather than raw variance in
    its validation figures.
    """
    measured_cov = check_positive("measured_cov", measured_cov)
    measured_variance = (measured_cov * statistics.mean_rate) ** 2
    return fit_power_from_variance(measured_variance, statistics, clip=clip)


def fit_power_averaged(
    measured_variance: float,
    arrival_rate: float,
    ensemble: FlowEnsemble,
    delta: float,
    *,
    b_max: float = 16.0,
    quad_order: int = 32,
    max_flows: int | None = 50_000,
) -> PowerFit:
    """Fit ``b`` against the Delta-averaged variance of eq. (7).

    Solves ``sigma_bar^2(Delta; b) = measured_variance`` for ``b``; this is
    unbiased with respect to the measurement window, at the cost of a root
    search with quadrature inside.  ``kappa`` in the result is still
    reported against the instantaneous rectangular bound, for comparability
    with :func:`fit_power_from_variance`.
    """
    measured_variance = check_positive("measured_variance", measured_variance)
    arrival_rate = check_positive("arrival_rate", arrival_rate)
    delta = check_positive("delta", delta)
    b_max = check_nonnegative("b_max", b_max)

    kappa = measured_variance / (
        arrival_rate * ensemble.mean_square_size_over_duration
    )

    def gap(b: float) -> float:
        model_var = averaged_variance(
            arrival_rate,
            ensemble,
            PowerShot(b),
            delta,
            quad_order=quad_order,
            max_flows=max_flows,
        )
        return model_var - measured_variance

    gap_low = gap(0.0)
    if gap_low >= 0.0:
        return PowerFit(power=0.0, kappa=kappa, clipped=True)
    gap_high = gap(b_max)
    if gap_high <= 0.0:
        return PowerFit(power=b_max, kappa=kappa, clipped=True)
    from scipy.optimize import brentq  # on first use

    power = float(brentq(gap, 0.0, b_max, xtol=1e-4))
    return PowerFit(power=power, kappa=kappa, clipped=False)
