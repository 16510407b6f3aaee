"""The M/G/infinity active-flow model — section V-A of the paper.

When shots are rectangles of height 1, the Poisson shot-noise reduces to
the number of customers ``N(t)`` in an M/G/infinity queue: flows arrive as
Poisson(lambda), stay for a generally distributed duration ``D``, and the
stationary count is Poisson with mean ``rho = lambda E[D]`` — the paper
uses this fact (via its PGF, eq. 3) in the proof of Theorem 1.

The class below also exposes the two auxiliary results used in that proof:

* the *length-biased* duration of a flow observed active at a random time,
  with density ``f0(y) = y f(y) / E[D]`` (section V-A, residual-service
  argument), and
* the count autocovariance ``Gamma_N(tau) = lambda E[(D - |tau|)+]``, which
  is Theorem 2 specialised to unit-height rectangles.
"""

from __future__ import annotations

import numpy as np

from .._util import as_1d_float_array, check_positive
from ..exceptions import ParameterError

__all__ = ["MGInfinityModel"]


class MGInfinityModel:
    """Stationary M/G/infinity flow-count model.

    Parameters
    ----------
    arrival_rate:
        Poisson flow arrival rate ``lambda`` (flows/second).
    mean_duration:
        ``E[D]`` in seconds.  May be omitted when ``durations`` is given.
    durations:
        Optional array of per-flow durations; enables the count
        autocovariance and length-biased statistics.
    """

    def __init__(
        self,
        arrival_rate: float,
        mean_duration: float | None = None,
        durations=None,
    ) -> None:
        self.arrival_rate = check_positive("arrival_rate", arrival_rate)
        self._durations = None
        if durations is not None:
            self._durations = as_1d_float_array("durations", durations)
            if np.any(self._durations <= 0):
                raise ParameterError("durations must be strictly positive")
            if mean_duration is None:
                mean_duration = float(np.mean(self._durations))
        if mean_duration is None:
            raise ParameterError("provide mean_duration or durations")
        self.mean_duration = check_positive("mean_duration", mean_duration)

    def __repr__(self) -> str:
        return (
            f"MGInfinityModel(arrival_rate={self.arrival_rate:g}, "
            f"mean_duration={self.mean_duration:g})"
        )

    # -- stationary count --------------------------------------------------

    @property
    def load(self) -> float:
        """``rho = lambda E[D]`` — mean (and variance) of the active count."""
        return self.arrival_rate * self.mean_duration

    @property
    def count_distribution(self):
        """Frozen Poisson(rho) law of the stationary active-flow count."""
        from scipy import stats

        return stats.poisson(self.load)

    def pmf(self, k) -> np.ndarray:
        """``P(N = k)`` (paper's M/G/infinity marginal, eq. before (3))."""
        return self.count_distribution.pmf(np.asarray(k))

    def pgf(self, z) -> np.ndarray:
        """Probability generating function ``exp(rho (z - 1))`` (eq. 3)."""
        z = np.asarray(z, dtype=np.float64)
        return np.exp(self.load * (z - 1.0))

    def probability_at_least(self, k: int) -> float:
        """``P(N >= k)`` — e.g. probability a flow-table exceeds a size."""
        if k <= 0:
            return 1.0
        return float(self.count_distribution.sf(k - 1))

    def quantile(self, p: float) -> int:
        """Smallest ``k`` with ``P(N <= k) >= p`` (flow-table sizing)."""
        if not 0.0 < p < 1.0:
            raise ParameterError(f"p must be in (0,1), got {p}")
        return int(self.count_distribution.ppf(p))

    # -- second-order structure and length bias -----------------------------

    def _require_durations(self) -> np.ndarray:
        if self._durations is None:
            raise ParameterError(
                "this quantity needs per-flow duration samples; "
                "construct the model with durations=..."
            )
        return self._durations

    def count_autocovariance(self, lags) -> np.ndarray:
        """``Gamma_N(tau) = lambda E[(D - |tau|)+]`` (Theorem 2, unit shots)."""
        durations = self._require_durations()
        lags = np.abs(np.atleast_1d(np.asarray(lags, dtype=np.float64)))
        excess = np.maximum(durations[None, :] - lags[:, None], 0.0)
        return self.arrival_rate * np.mean(excess, axis=1)

    def count_autocorrelation(self, lags) -> np.ndarray:
        """``Gamma_N(tau) / Gamma_N(0)``."""
        gamma = self.count_autocovariance(np.concatenate([[0.0], np.atleast_1d(lags)]))
        return gamma[1:] / gamma[0]

    @property
    def length_biased_mean_duration(self) -> float:
        """Mean duration ``E[D^2]/E[D]`` of a flow seen active at a random
        instant — always >= E[D] (the inspection paradox used in the proof
        of Theorem 1)."""
        durations = self._require_durations()
        return float(np.mean(durations**2) / np.mean(durations))

    def length_biased_sample(self, n: int, rng=None) -> np.ndarray:
        """Draw ``n`` durations from the length-biased density
        ``f0(y) = y f(y) / E[D]`` by weighted resampling."""
        durations = self._require_durations()
        rng = np.random.default_rng(rng) if not isinstance(
            rng, np.random.Generator
        ) else rng
        weights = durations / durations.sum()
        return rng.choice(durations, size=int(n), p=weights)
