"""The Poisson shot-noise traffic model — sections IV and V of the paper.

:class:`PoissonShotNoiseModel` is the full model: an arrival rate, a flow
ensemble (joint law of sizes and durations) and a shot shape.  It exposes
every quantity derived in the paper — mean (Corollary 1), variance
(Corollary 2), higher cumulants (Corollary 3), autocovariance (Theorem 2),
LST (Theorem 1), the Theorem 3 variance lower bound, the section V-E
Gaussian approximation and the section V-F averaged variance.

:class:`ThreeParameterModel` is the reduced, router-implementable summary
the paper advertises: only ``lambda``, ``E[S]``, ``E[S^2/D]`` plus a shape
multiplier — no per-flow state retained.

:class:`SuperposedModel` implements the section VIII extension to multiple
flow classes with a different shot per class: Poisson shot-noises are
closed under superposition, so means, cumulants and autocovariances add.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import check_positive
from ..exceptions import ModelError
from . import lst as _lst
from .covariance import autocorrelation, autocovariance, spectral_density
from .ensemble import EmpiricalEnsemble, FlowEnsemble
from .fitting import PowerFit, fit_power_from_variance
from .gaussian import EdgeworthApproximation, GaussianApproximation
from .mginf import MGInfinityModel
from .parameters import FlowStatistics
from .sampling import averaged_variance
from .shots import RectangularShot, Shot

__all__ = [
    "PoissonShotNoiseModel",
    "ThreeParameterModel",
    "SuperposedModel",
]


class PoissonShotNoiseModel:
    """Total-rate model ``R(t) = sum_n X_n(t - T_n)`` on an uncongested link.

    Parameters
    ----------
    arrival_rate:
        Poisson flow arrival rate ``lambda`` (flows/second) — Assumption 1.
    ensemble:
        Joint law of flow (size, duration) — the iid Assumption 2.
    shot:
        Flow rate function shape shared by all flows.  Defaults to the
        rectangular shot, the variance-minimising choice of Theorem 3.
    """

    def __init__(
        self,
        arrival_rate: float,
        ensemble: FlowEnsemble,
        shot: Shot | None = None,
    ) -> None:
        self.arrival_rate = check_positive("arrival_rate", arrival_rate)
        self.ensemble = ensemble
        self.shot = shot if shot is not None else RectangularShot()

    @classmethod
    def from_flows(
        cls,
        sizes,
        durations,
        interval_length: float,
        shot: Shot | None = None,
    ) -> "PoissonShotNoiseModel":
        """Build the model straight from per-flow measurements.

        This is the paper's section VI pipeline: export flows over an
        interval, estimate ``lambda`` as count/interval, keep the empirical
        (S, D) sample for all expectations.
        """
        ensemble = EmpiricalEnsemble(sizes, durations)
        interval_length = check_positive("interval_length", interval_length)
        return cls(len(ensemble) / interval_length, ensemble, shot)

    def __repr__(self) -> str:
        return (
            f"PoissonShotNoiseModel(arrival_rate={self.arrival_rate:g}, "
            f"ensemble={self.ensemble!r}, shot={self.shot!r})"
        )

    # -- first and second moments (Corollaries 1 and 2) --------------------

    @property
    def mean(self) -> float:
        """``E[R] = lambda E[S]`` (Corollary 1) — bytes/second."""
        return self.arrival_rate * self.ensemble.mean_size

    @property
    def variance(self) -> float:
        """``Var(R) = lambda E[integral_0^D X^2]`` (Corollary 2)."""
        return self.arrival_rate * self.ensemble.expect(
            lambda s, d: self.shot.moment_integral(2, s, d)
        )

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))

    @property
    def coefficient_of_variation(self) -> float:
        """std/mean — the figure-of-merit of the validation (Figures 9-13)."""
        return self.std / self.mean

    @property
    def variance_lower_bound(self) -> float:
        """Theorem 3: ``lambda E[S^2/D]``, reached by the rectangular shot."""
        return self.arrival_rate * self.ensemble.mean_square_size_over_duration

    # -- higher-order structure (Corollary 3, Theorems 1 and 2) -----------

    def cumulant(self, order: int) -> float:
        """n-th cumulant of the stationary rate (Corollary 3)."""
        return _lst.cumulant(order, self.arrival_rate, self.ensemble, self.shot)

    @property
    def skewness(self) -> float:
        return _lst.skewness(self.arrival_rate, self.ensemble, self.shot)

    @property
    def excess_kurtosis(self) -> float:
        return _lst.excess_kurtosis(self.arrival_rate, self.ensemble, self.shot)

    def laplace_transform(self, s: float, **kwargs) -> float:
        """Theorem 1 LST ``E[e^{-sR}]``."""
        return _lst.laplace_transform(
            s, self.arrival_rate, self.ensemble, self.shot, **kwargs
        )

    def rate_pdf(self, x=None, **kwargs):
        """Numerical inversion of the LST: the full first-order pdf."""
        return _lst.rate_pdf(
            self.arrival_rate, self.ensemble, self.shot, x, **kwargs
        )

    def chernoff_tail_bound(self, level: float, **kwargs) -> float:
        """Large-deviations bound on ``P(R > level)`` (section V-E pointer)."""
        return _lst.chernoff_tail_bound(
            level, self.arrival_rate, self.ensemble, self.shot, **kwargs
        )

    def autocovariance(self, lags, **kwargs) -> np.ndarray:
        """Theorem 2 autocovariance at the given lags (seconds)."""
        return autocovariance(
            self.arrival_rate, self.ensemble, self.shot, lags, **kwargs
        )

    def autocorrelation(self, lags, **kwargs) -> np.ndarray:
        """Theorem 2 autocorrelation coefficients (Figure 8)."""
        return autocorrelation(
            self.arrival_rate, self.ensemble, self.shot, lags, **kwargs
        )

    def spectral_density(self, frequencies, **kwargs) -> np.ndarray:
        """Campbell spectral density of the centred rate (Hz -> (bytes/s)^2/Hz)."""
        return spectral_density(
            self.arrival_rate, self.ensemble, self.shot, frequencies, **kwargs
        )

    # -- measurement-window correction (section V-F) -----------------------

    def averaged_variance(self, delta: float, **kwargs) -> float:
        """Variance of the Delta-averaged rate, eq. (7)."""
        return averaged_variance(
            self.arrival_rate, self.ensemble, self.shot, delta, **kwargs
        )

    def averaged_cov(self, delta: float, **kwargs) -> float:
        """CoV of the Delta-averaged rate."""
        return float(np.sqrt(self.averaged_variance(delta, **kwargs))) / self.mean

    # -- derived views ------------------------------------------------------

    def gaussian(self) -> GaussianApproximation:
        """Section V-E Gaussian approximation of the rate distribution."""
        return GaussianApproximation(self.mean, self.std)

    def edgeworth(self) -> EdgeworthApproximation:
        """Skewness/kurtosis-corrected refinement of the Gaussian
        approximation, built from the first four cumulants (Corollary 3)."""
        return EdgeworthApproximation.from_cumulants(
            self.cumulant(1), self.cumulant(2), self.cumulant(3),
            self.cumulant(4),
        )

    def required_capacity(self, epsilon: float) -> float:
        """Provisioning rule ``E[R] + F(epsilon) sigma`` (section VII-A)."""
        return self.gaussian().required_capacity(epsilon)

    def active_flows(self) -> MGInfinityModel:
        """The M/G/infinity count model of the flows active on the link."""
        durations = None
        if isinstance(self.ensemble, EmpiricalEnsemble):
            durations = self.ensemble.durations
        return MGInfinityModel(
            self.arrival_rate, self.ensemble.mean_duration, durations
        )

    def statistics(self) -> FlowStatistics:
        """The three-parameter summary of this model's inputs."""
        flow_count = (
            len(self.ensemble) if isinstance(self.ensemble, EmpiricalEnsemble) else 0
        )
        return FlowStatistics(
            arrival_rate=self.arrival_rate,
            mean_size=self.ensemble.mean_size,
            mean_square_size_over_duration=(
                self.ensemble.mean_square_size_over_duration
            ),
            mean_duration=self.ensemble.mean_duration,
            flow_count=flow_count,
        )

    def fit_power(self, measured_variance: float, **kwargs) -> PowerFit:
        """Section V-D: fit the power-shot exponent to a measured variance."""
        return fit_power_from_variance(
            measured_variance, self.statistics(), **kwargs
        )

    def with_shot(self, shot: Shot) -> "PoissonShotNoiseModel":
        """Same traffic, different shot assumption (shape sensitivity)."""
        return PoissonShotNoiseModel(self.arrival_rate, self.ensemble, shot)

    def scaled_arrivals(self, factor: float) -> "PoissonShotNoiseModel":
        """Section VII-A what-if: multiply ``lambda``, keep (S, D) law."""
        factor = check_positive("factor", factor)
        return PoissonShotNoiseModel(
            self.arrival_rate * factor, self.ensemble, self.shot
        )

    def superpose(self, *others: "PoissonShotNoiseModel") -> "SuperposedModel":
        """Multiplex independent flow classes (section VIII extension)."""
        return SuperposedModel((self, *others))


@dataclass(frozen=True)
class ThreeParameterModel:
    """The reduced model an ISP can run from NetFlow-style counters alone.

    Carries only the paper's three parameters (inside ``statistics``) and a
    shot shape factor ``(b+1)^2/(2b+1)``; everything a dimensioning tool
    needs — mean, variance, Gaussian quantiles — follows.  No per-flow
    state, no distributions.
    """

    statistics: FlowStatistics
    shape_factor: float = 1.0

    def __post_init__(self) -> None:
        check_positive("shape_factor", self.shape_factor)

    @property
    def mean(self) -> float:
        return self.statistics.mean_rate

    @property
    def variance(self) -> float:
        return self.statistics.variance(self.shape_factor)

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))

    @property
    def coefficient_of_variation(self) -> float:
        return self.std / self.mean

    def gaussian(self) -> GaussianApproximation:
        return GaussianApproximation(self.mean, self.std)

    def required_capacity(self, epsilon: float) -> float:
        return self.gaussian().required_capacity(epsilon)

    def scaled_arrivals(self, factor: float) -> "ThreeParameterModel":
        return ThreeParameterModel(
            self.statistics.scaled_arrivals(factor), self.shape_factor
        )


class SuperposedModel:
    """Sum of independent Poisson shot-noise classes (multi-class traffic).

    Because arrivals are independent Poisson and shots independent, all
    cumulants and the autocovariance of the superposition are the sums of
    the per-class quantities.
    """

    def __init__(self, components) -> None:
        components = tuple(components)
        if not components:
            raise ModelError("SuperposedModel needs at least one component")
        self.components = components

    def __repr__(self) -> str:
        return f"SuperposedModel(n_classes={len(self.components)})"

    @property
    def mean(self) -> float:
        return float(sum(m.mean for m in self.components))

    @property
    def variance(self) -> float:
        return float(sum(m.variance for m in self.components))

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))

    @property
    def coefficient_of_variation(self) -> float:
        return self.std / self.mean

    def cumulant(self, order: int) -> float:
        return float(sum(m.cumulant(order) for m in self.components))

    def autocovariance(self, lags, **kwargs) -> np.ndarray:
        return sum(m.autocovariance(lags, **kwargs) for m in self.components)

    def autocorrelation(self, lags, **kwargs) -> np.ndarray:
        lags = np.atleast_1d(np.asarray(lags, dtype=float))
        gamma = self.autocovariance(np.concatenate([[0.0], lags.ravel()]), **kwargs)
        return (gamma[1:] / gamma[0]).reshape(lags.shape)

    def averaged_variance(self, delta: float, **kwargs) -> float:
        return float(
            sum(m.averaged_variance(delta, **kwargs) for m in self.components)
        )

    def gaussian(self) -> GaussianApproximation:
        return GaussianApproximation(self.mean, self.std)

    def required_capacity(self, epsilon: float) -> float:
        return self.gaussian().required_capacity(epsilon)
