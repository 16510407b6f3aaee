"""Flow size / rate / RTT distributions for workload synthesis.

The self-similarity literature the paper builds on ([9], [19], [22])
attributes backbone traffic variability to *heavy-tailed* flow sizes, so
the default size law here is a bounded Pareto; access rates and round-trip
times are lognormal.  All distributions expose the small protocol
``rvs(size=..., random_state=...)`` / ``mean()`` used by
:class:`repro.core.SizeRateEnsemble`, so they plug into both the workload
generator and the analytic model.

The four laws calibration fits — ``LogNormal``, ``BoundedPareto``,
``Exponential`` and ``LognormalParetoMixture`` — also carry ``cdf(x)``,
``ppf(q)`` and ``scaled(factor)``, and :data:`SIZE_LAWS` names them: a
family's parameter names are its dataclass fields, and
:func:`size_law` builds one from exactly those parameters.  Every one
of them is *scale-closed*: ``scaled(c)`` multiplies each length
parameter by ``c``, which multiplies the random variable by exactly
``c`` (the underlying uniform/normal draws are unchanged).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.special import ndtr, ndtri

from .._util import as_rng
from ..exceptions import ParameterError

__all__ = [
    "BoundedPareto",
    "LogNormal",
    "LognormalParetoMixture",
    "Exponential",
    "Constant",
    "Mixture",
    "Empirical",
    "SIZE_LAWS",
    "CALIBRATION_FAMILIES",
    "size_law",
]


def _rng_of(random_state) -> np.random.Generator:
    return as_rng(random_state)


def _require_finite(law) -> None:
    """Reject NaN, ±inf and non-numbers in any parameter of ``law``."""
    for f in fields(law):
        value = getattr(law, f.name)
        try:
            finite = math.isfinite(value)
        except TypeError:
            finite = False
        if not finite:
            raise ParameterError(
                f"{type(law).__name__}.{f.name} must be a finite number, "
                f"got {value!r}"
            )


def _quantiles(q) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    if np.any(q <= 0.0) or np.any(q >= 1.0):
        raise ParameterError("quantiles must lie strictly inside (0, 1)")
    return q


def _scale_factor(factor):
    if factor <= 0.0:
        raise ParameterError(f"scale factor must be > 0, got {factor!r}")
    return factor


@dataclass(frozen=True)
class BoundedPareto:
    """Pareto law truncated to ``[minimum, maximum]``.

    Density proportional to ``x^-(alpha+1)``.  Bounding the support keeps
    every moment finite (so Monte Carlo converges) while preserving the
    many-orders-of-magnitude size spread: mice and elephants.
    """

    alpha: float
    minimum: float
    maximum: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.alpha <= 0:
            raise ParameterError(f"alpha must be > 0, got {self.alpha}")
        if not 0 < self.minimum < self.maximum:
            raise ParameterError("need 0 < minimum < maximum")

    def _inverse_cdf(self, u) -> np.ndarray:
        a, lo, hi = self.alpha, self.minimum, self.maximum
        ratio = (lo / hi) ** a
        return lo / (1.0 - u * (1.0 - ratio)) ** (1.0 / a)

    def rvs(self, size=1, random_state=None) -> np.ndarray:
        rng = _rng_of(random_state)
        return self._inverse_cdf(rng.random(size))

    def mean(self) -> float:
        a, lo, hi = self.alpha, self.minimum, self.maximum
        norm = 1.0 - (lo / hi) ** a
        if a == 1.0:
            return lo * np.log(hi / lo) / norm
        return (a / (a - 1.0)) * lo * (1.0 - (lo / hi) ** (a - 1.0)) / norm

    def second_moment(self) -> float:
        a, lo, hi = self.alpha, self.minimum, self.maximum
        norm = 1.0 - (lo / hi) ** a
        if a == 2.0:
            return 2.0 * lo**2 * np.log(hi / lo) / norm
        return (a / (a - 2.0)) * lo**2 * (1.0 - (lo / hi) ** (a - 2.0)) / norm

    def ccdf(self, x) -> np.ndarray:
        """``P(X > x)``."""
        x = np.asarray(x, dtype=np.float64)
        a, lo, hi = self.alpha, self.minimum, self.maximum
        norm = 1.0 - (lo / hi) ** a
        tail = ((lo / np.clip(x, lo, hi)) ** a - (lo / hi) ** a) / norm
        return np.where(x < lo, 1.0, np.where(x >= hi, 0.0, tail))

    def cdf(self, x) -> np.ndarray:
        """``P(X <= x)``."""
        return 1.0 - self.ccdf(x)

    def ppf(self, q) -> np.ndarray:
        return self._inverse_cdf(_quantiles(q))

    def scaled(self, factor) -> "BoundedPareto":
        factor = _scale_factor(factor)
        return replace(
            self, minimum=self.minimum * factor, maximum=self.maximum * factor
        )


@dataclass(frozen=True)
class LogNormal:
    """Lognormal with given *median* and log-space sigma.

    ``median`` parameterisation keeps workload presets readable:
    ``LogNormal(median=50e3, sigma=0.6)`` is a 50 kB/s typical access rate.
    """

    median: float
    sigma: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.median <= 0:
            raise ParameterError("median must be > 0")
        if self.sigma < 0:
            raise ParameterError("sigma must be >= 0")

    def rvs(self, size=1, random_state=None) -> np.ndarray:
        rng = _rng_of(random_state)
        return rng.lognormal(np.log(self.median), self.sigma, size)

    def mean(self) -> float:
        return float(self.median * np.exp(self.sigma**2 / 2.0))

    def cdf(self, x) -> np.ndarray:
        """``P(X <= x)``."""
        x = np.asarray(x, dtype=np.float64)
        sigma = max(self.sigma, 1e-12)
        with np.errstate(divide="ignore"):
            z = (np.log(np.maximum(x, 1e-300)) - np.log(self.median)) / sigma
        return np.where(x <= 0.0, 0.0, ndtr(z))

    def ppf(self, q) -> np.ndarray:
        return self.median * np.exp(self.sigma * ndtri(_quantiles(q)))

    def scaled(self, factor) -> "LogNormal":
        return replace(self, median=self.median * _scale_factor(factor))


@dataclass(frozen=True)
class LognormalParetoMixture:
    """Lognormal body + bounded-Pareto tail flow-size law.

    The mixture documented for campus/enterprise flow populations
    (Jurkiewicz et al., "Flow length and size distributions in campus
    Internet traffic"): the bulk of flows follows a lognormal body of
    median ``median`` and log-sigma ``sigma`` with probability
    ``body_weight``; the remaining mass is a bounded Pareto tail of
    exponent ``alpha`` on ``[minimum, maximum]``.  Bounding the tail
    keeps every moment finite, so the law plugs into the shot-noise
    model's Monte Carlo calibration like the other families.

    This is the family ``repro.calibration`` fits to real traces next
    to the pure lognormal/Pareto/exponential laws (:data:`SIZE_LAWS`);
    the ``campus-mixture-*`` registry scenarios carry the published
    campus fits as presets.
    """

    body_weight: float
    median: float
    sigma: float
    alpha: float
    minimum: float
    maximum: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if not 0.0 < self.body_weight < 1.0:
            raise ParameterError(
                f"body_weight must lie in (0, 1), got {self.body_weight}"
            )
        # component validation is delegated: construct both parts once
        self.body  # noqa: B018 — validates median/sigma
        self.tail  # noqa: B018 — validates alpha/minimum/maximum

    @property
    def body(self) -> LogNormal:
        return LogNormal(median=self.median, sigma=self.sigma)

    @property
    def tail(self) -> BoundedPareto:
        return BoundedPareto(
            alpha=self.alpha, minimum=self.minimum, maximum=self.maximum
        )

    def rvs(self, size=1, random_state=None) -> np.ndarray:
        rng = _rng_of(random_state)
        count = int(size) if np.isscalar(size) else int(np.prod(size))
        from_body = rng.random(count) < self.body_weight
        out = np.empty(count, dtype=np.float64)
        n_body = int(from_body.sum())
        if n_body:
            out[from_body] = self.body.rvs(size=n_body, random_state=rng)
        if count - n_body:
            out[~from_body] = self.tail.rvs(
                size=count - n_body, random_state=rng
            )
        return out

    def mean(self) -> float:
        return float(
            self.body_weight * self.body.mean()
            + (1.0 - self.body_weight) * self.tail.mean()
        )

    def second_moment(self) -> float:
        body_m2 = self.median**2 * np.exp(2.0 * self.sigma**2)
        return float(
            self.body_weight * body_m2
            + (1.0 - self.body_weight) * self.tail.second_moment()
        )

    def cdf(self, x) -> np.ndarray:
        """``P(X <= x)``."""
        return (
            self.body_weight * self.body.cdf(x)
            + (1.0 - self.body_weight) * (1.0 - self.tail.ccdf(x))
        )

    def ccdf(self, x) -> np.ndarray:
        """``P(X > x)``."""
        return 1.0 - self.cdf(x)

    def ppf(self, q) -> np.ndarray:
        """Quantiles by inverting the CDF on a fine log-spaced grid."""
        q = _quantiles(q)
        sigma = max(self.sigma, 1e-12)
        lo = min(self.median * np.exp(-8.0 * sigma), self.minimum)
        hi = max(self.median * np.exp(8.0 * sigma), self.maximum)
        grid = np.logspace(np.log10(lo), np.log10(hi), 8192)
        cdf = np.maximum.accumulate(self.cdf(grid))  # fp wobble: keep monotone
        return np.interp(q, cdf, grid, left=grid[0], right=grid[-1])

    def scaled(self, factor) -> "LognormalParetoMixture":
        factor = _scale_factor(factor)
        return replace(
            self,
            median=self.median * factor,
            minimum=self.minimum * factor,
            maximum=self.maximum * factor,
        )


@dataclass(frozen=True)
class Exponential:
    """Exponential with the given mean (in bytes, as a flow-size law)."""

    mean_bytes: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.mean_bytes <= 0:
            raise ParameterError("mean_bytes must be > 0")

    def rvs(self, size=1, random_state=None) -> np.ndarray:
        rng = _rng_of(random_state)
        return rng.exponential(self.mean_bytes, size)

    def mean(self) -> float:
        return float(self.mean_bytes)

    def cdf(self, x) -> np.ndarray:
        """``P(X <= x)``."""
        x = np.asarray(x, dtype=np.float64)
        return np.where(x <= 0.0, 0.0, -np.expm1(-x / self.mean_bytes))

    def ppf(self, q) -> np.ndarray:
        return -self.mean_bytes * np.log1p(-_quantiles(q))

    def scaled(self, factor) -> "Exponential":
        return replace(self, mean_bytes=self.mean_bytes * _scale_factor(factor))


#: The flow-size laws calibration fits, by family name, in fitting order.
#: A family's parameter names are its class's dataclass fields.
SIZE_LAWS: dict[str, type] = {
    "lognormal": LogNormal,
    "pareto": BoundedPareto,
    "exponential": Exponential,
    "lognormal_pareto": LognormalParetoMixture,
}

#: The families calibration fits by default: all of them.
CALIBRATION_FAMILIES = tuple(SIZE_LAWS)


def size_law(name: str, params: dict):
    """The ``name`` family's law, built from exactly its parameters.

    Raises :class:`ParameterError` for an unknown name, a missing or an
    extra parameter, and (from the law itself) an out-of-domain or
    non-finite value.
    """
    try:
        law = SIZE_LAWS[name]
    except (KeyError, TypeError):
        raise ParameterError(
            f"size-law kind must be one of {list(SIZE_LAWS)}, got {name!r}"
        ) from None
    names = tuple(f.name for f in fields(law))
    missing = [p for p in names if p not in params]
    if missing:
        raise ParameterError(
            f"size law {name!r} needs parameters {names}, missing {missing}"
        )
    extra = sorted(set(params) - set(names))
    if extra:
        raise ParameterError(
            f"size law {name!r} takes only {names}; remove {extra}"
        )
    return law(**params)


@dataclass(frozen=True)
class Constant:
    """Degenerate distribution (useful for CBR streams and tests)."""

    value: float

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise ParameterError("value must be > 0")

    def rvs(self, size=1, random_state=None) -> np.ndarray:
        return np.full(size, float(self.value))

    def mean(self) -> float:
        return float(self.value)


class Mixture:
    """Finite mixture of component distributions.

    E.g. a mice/elephants size law:
    ``Mixture([(0.95, BoundedPareto(...small...)), (0.05, BoundedPareto(...big...))])``.

    Immutable, with value equality and a hash like the frozen laws: two
    mixtures are equal when their normalised weights and their
    components are.  A mixture of an unhashable component is unhashable.
    """

    def __init__(self, components) -> None:
        components = list(components)
        if not components:
            raise ParameterError("mixture needs at least one component")
        weights = np.array([w for w, _ in components], dtype=np.float64)
        if np.any(weights < 0) or weights.sum() <= 0:
            raise ParameterError("mixture weights must be >= 0 and not all zero")
        self.weights = weights / weights.sum()
        self.weights.flags.writeable = False
        self.distributions = tuple(d for _, d in components)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mixture):
            return NotImplemented
        return (
            self.weights.tobytes() == other.weights.tobytes()
            and self.distributions == other.distributions
        )

    def __hash__(self) -> int:
        return hash((self.weights.tobytes(), self.distributions))

    def __setstate__(self, state) -> None:
        # an unpickled array is writeable again
        self.__dict__.update(state)
        self.weights.flags.writeable = False

    def rvs(self, size=1, random_state=None) -> np.ndarray:
        rng = _rng_of(random_state)
        size = int(size) if np.isscalar(size) else int(np.prod(size))
        which = rng.choice(len(self.distributions), size=size, p=self.weights)
        out = np.empty(size, dtype=np.float64)
        for i, dist in enumerate(self.distributions):
            mask = which == i
            count = int(mask.sum())
            if count:
                out[mask] = dist.rvs(size=count, random_state=rng)
        return out

    def mean(self) -> float:
        return float(
            sum(w * d.mean() for w, d in zip(self.weights, self.distributions))
        )


class Empirical:
    """Resampling distribution over observed values (bootstrap).

    Unhashable: its values are an array, so it has no value hash.
    """

    __hash__ = None

    def __init__(self, values) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise ParameterError("values must not be empty")
        if np.any(~np.isfinite(values)) or np.any(values <= 0):
            raise ParameterError("values must be finite and > 0")
        self.values = values

    def rvs(self, size=1, random_state=None) -> np.ndarray:
        rng = _rng_of(random_state)
        return rng.choice(self.values, size=size, replace=True)

    def mean(self) -> float:
        return float(self.values.mean())
