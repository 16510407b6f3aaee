"""Per-family fitters over accumulator state, and model selection.

Every fitter consumes only the bounded-memory sufficient statistics of a
:class:`~repro.calibration.accumulators.CalibrationAccumulator` — the
``log10(size)`` histogram, the exact byte total and the exact top-k tail
— never the raw flow array, so fitting a multi-gigabyte archive costs
the same as fitting a thousand flows.  Likelihoods are *grouped* (bin
probabilities from CDF differences), the textbook treatment for
histogram data; with the default 512 bins over twelve decades the
grouping error is far below the sampling noise of any real trace.

The mixture fitter is a binned EM with a threshold grid and
``SeedSequence``-seeded random restarts.  Every (threshold, restart)
pair is one run, and the runs are fitted together as the rows of one
array, in blocks of a fixed number of rows: each E and M step is one
broadcast operation over the block, and a run that stops early keeps
its parameters while the rest go on.  For a fixed ``seed`` the restart
initialisations are reproducible and each row computes exactly what a
lone run would, so the chosen parameters are bitwise identical across
runs, chunkings and execution backends.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from ..exceptions import FittingError, ParameterError
from ..netsim.sizes import (
    CALIBRATION_FAMILIES,
    BoundedPareto,
    LognormalParetoMixture,
    size_law,
)
from ..stats.qq import linear_correlation
from .accumulators import CalibrationAccumulator

__all__ = [
    "SELECTION_CRITERIA",
    "FamilyFit",
    "fit_all_families",
    "fit_family",
    "grouped_log_likelihood",
    "select_best",
    "tail_qq",
]

#: Model-selection criteria ``select_best`` understands.
SELECTION_CRITERIA = ("bic", "aic", "loglik", "ks")

_ALPHA_BOUNDS = (0.05, 25.0)
#: Log-spaced shape values scanned to bracket the Pareto optimum.
_ALPHA_SCAN_POINTS = 64
_EM_ITERATIONS = 60
#: EM runs fitted together as the rows of one array.
_EM_BLOCK_ROWS = 64
_SQRT_2PI = np.sqrt(2.0 * np.pi)
_TINY = 1e-300


@dataclass(frozen=True)
class FamilyFit:
    """One family's fitted parameters and goodness-of-fit diagnostics."""

    family: str
    params: dict
    n_params: int
    log_likelihood: float
    aic: float
    bic: float
    ks_statistic: float
    tail_qq_rmse_log10: float
    tail_qq_correlation: float

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "params": {k: float(v) for k, v in self.params.items()},
            "n_params": self.n_params,
            "log_likelihood": self.log_likelihood,
            "aic": self.aic,
            "bic": self.bic,
            "ks_statistic": self.ks_statistic,
            "tail_qq_rmse_log10": self.tail_qq_rmse_log10,
            "tail_qq_correlation": self.tail_qq_correlation,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FamilyFit":
        return cls(**data)


# -- goodness of fit ------------------------------------------------------


def grouped_log_likelihood(
    acc: CalibrationAccumulator, family: str, params: dict
) -> float:
    """Grouped (binned) log-likelihood of a fitted family."""
    acc.require_data()
    return _law_log_likelihood(acc, size_law(family, params))


def _law_log_likelihood(acc: CalibrationAccumulator, law) -> float:
    probs = np.clip(np.diff(law.cdf(acc.edges)), _TINY, None)
    mask = acc.counts > 0
    return float(np.sum(acc.counts[mask] * np.log(probs[mask])))


def _binned_ks(acc: CalibrationAccumulator, law) -> float:
    """KS distance between binned ECDF and model CDF at the bin edges."""
    ecdf = acc.empirical_cdf_at_edges()
    model = law.cdf(acc.edges[1:])
    return float(np.max(np.abs(ecdf - model)))


def tail_qq(
    acc: CalibrationAccumulator, family: str, params: dict
) -> tuple[float, float]:
    """Tail QQ diagnostics on the exact top-k sizes.

    Compares the observed ``k`` largest flows against the model
    quantiles at their plotting positions; returns
    ``(rmse_log10, correlation)`` in log10 space — the axes of the
    paper-style tail QQ plot.
    """
    acc.require_data()
    tail = acc.tail[acc.tail > 0.0]
    if tail.size < 8:
        return float("nan"), float("nan")
    ranks = np.arange(tail.size, dtype=np.float64)  # 0 = largest
    positions = 1.0 - (ranks + 0.5) / acc.n
    model = size_law(family, params).ppf(positions)
    observed_log = np.log10(tail)
    model_log = np.log10(np.clip(model, _TINY, None))
    rmse = float(np.sqrt(np.mean((observed_log - model_log) ** 2)))
    return rmse, linear_correlation(observed_log, model_log)


# -- per-family fitters ---------------------------------------------------


def _weighted_log_moments(
    weights: np.ndarray, log_mid: np.ndarray
) -> tuple[float, float]:
    total = float(weights.sum())
    mu = float(np.sum(weights * log_mid) / total)
    var = float(np.sum(weights * (log_mid - mu) ** 2) / total)
    return mu, max(var, 1e-8)


def _fit_lognormal(acc: CalibrationAccumulator) -> dict:
    """Closed-form weighted MLE on the natural-log bin midpoints."""
    mu, var = _weighted_log_moments(
        acc.counts.astype(np.float64), acc.log_midpoints
    )
    return {"median": float(np.exp(mu)), "sigma": float(np.sqrt(var))}


def _fit_exponential(acc: CalibrationAccumulator) -> dict:
    """The exponential MLE is the exact mean — integer-exact here."""
    return {"mean_bytes": acc.mean_size}


def _fit_pareto(acc: CalibrationAccumulator) -> dict:
    """Bounded-Pareto shape by 1-D grouped-likelihood maximisation."""
    from scipy.optimize import minimize_scalar  # on first use

    lo = max(acc.min_size, 1.0)
    hi = max(acc.max_size, lo * (1.0 + 1e-9))

    def negative_ll(alpha: float) -> float:
        law = BoundedPareto(alpha=float(alpha), minimum=lo, maximum=hi)
        return -_law_log_likelihood(acc, law)

    result = minimize_scalar(
        negative_ll, bounds=_ALPHA_BOUNDS, method="bounded",
        options={"xatol": 1e-6},
    )
    alpha = result.x
    # the grouped likelihood is jagged, so Brent can settle in a local
    # dip; a coarse log-spaced scan brackets the global optimum, and is
    # refined only when it beats the first search
    grid = np.geomspace(*_ALPHA_BOUNDS, _ALPHA_SCAN_POINTS)
    scanned = np.array([negative_ll(a) for a in grid])
    best = int(np.argmin(scanned))
    if scanned[best] < result.fun:
        alpha = grid[best]
        refined = minimize_scalar(
            negative_ll,
            bounds=(grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]),
            method="bounded",
            options={"xatol": 1e-6},
        )
        if refined.fun < scanned[best]:
            alpha = refined.x
    return {"alpha": float(alpha), "minimum": lo, "maximum": hi}


def _mixture_thresholds(acc: CalibrationAccumulator) -> list[float]:
    """Candidate body/tail split points, snapped to bin quantiles."""
    thresholds = []
    for q in (0.5, 0.7, 0.8, 0.85, 0.9, 0.95, 0.98):
        t = acc.quantile(q)
        if acc.min_size < t < acc.max_size and t not in thresholds:
            thresholds.append(t)
    if not thresholds:
        thresholds = [float(np.sqrt(acc.min_size * acc.max_size))]
    return thresholds


def _em_start(
    weight0: float,
    moments: tuple[float, float],
    rng: np.random.Generator,
) -> tuple[float, float, float, float]:
    """One run's seeded ``(body_weight, mu, sigma, alpha)`` initialisation."""
    body_weight = float(
        np.clip(weight0 * (1.0 + 0.1 * rng.standard_normal()), 0.05, 0.95)
    )
    mu, var = moments
    mu += 0.2 * rng.standard_normal()
    sigma = float(np.sqrt(var)) * float(
        np.clip(1.0 + 0.2 * rng.standard_normal(), 0.5, 2.0)
    )
    sigma = max(sigma, 0.05)
    alpha = 1.0 + 1.5 * float(rng.random())
    return body_weight, mu, sigma, alpha


def _em_block(
    c: np.ndarray,
    log_x: np.ndarray,
    x: np.ndarray,
    runs: list[tuple],
) -> list[dict]:
    """EM for a block of independent runs, one run per array row.

    ``runs`` holds ``(threshold, hi, init)`` tuples in threshold-major
    order, so the rows of one threshold form one contiguous range.  A
    run stops at the first iteration whose body mass ``w1`` leaves
    ``(0, n)``: its parameters are kept and its row is dropped, so only
    the rows still running are computed.  Each row's tail sums run over
    its own contiguous suffix ``x >= threshold`` and its scalar
    constants are Python floats, so every row reproduces a one-run EM
    bit for bit.
    """
    n = float(c.sum())
    lo, hi, inits = (list(column) for column in zip(*runs))
    rows = np.arange(len(runs))
    body_weight, mu, sigma, alpha = (np.array(v) for v in zip(*inits))
    final = [None] * len(runs)

    def layout():
        # the Pareto support of each running row, and its threshold runs
        support = np.array([lo, hi])[:, :, None]
        in_support = (x >= support[0]) & (x <= support[1])
        groups, r0 = [], 0
        for t, members in itertools.groupby(lo):
            r1 = r0 + len(list(members))
            first = int(np.searchsorted(x, t, side="left"))
            groups.append((r0, r1, first, log_x[first:] - np.log(t)))
            r0 = r1
        return in_support, groups

    in_support, groups = layout()
    for _ in range(_EM_ITERATIONS):
        shape = alpha.tolist()
        norm = np.array([1.0 - (t / h) ** a for t, h, a in zip(lo, hi, shape)])
        scale = np.array([a * t**a for t, a in zip(lo, shape)])
        z = (log_x - mu[:, None]) / sigma[:, None]
        body_density = np.exp(-0.5 * z * z) / (x * sigma[:, None] * _SQRT_2PI)
        tail_density = np.where(
            in_support,
            scale[:, None] * x ** (-alpha - 1.0)[:, None] / norm[:, None],
            0.0,
        )
        numerator = body_weight[:, None] * body_density
        denominator = numerator + (1.0 - body_weight)[:, None] * tail_density
        resp = numerator / np.maximum(denominator, _TINY)
        body_mass = c * resp
        w1 = body_mass.sum(axis=1)
        running = ~((w1 <= 0.0) | (w1 >= n))
        if not running.all():
            for i in np.flatnonzero(~running).tolist():
                final[rows[i]] = (body_weight[i], mu[i], sigma[i], alpha[i])
            keep = np.flatnonzero(running)
            rows, body_weight, mu, sigma, alpha, resp, body_mass, w1 = (
                v[keep] for v in (
                    rows, body_weight, mu, sigma, alpha, resp, body_mass, w1
                )
            )
            lo = [lo[i] for i in keep.tolist()]
            hi = [hi[i] for i in keep.tolist()]
            if not lo:
                break
            in_support, groups = layout()
        body_weight = np.clip(w1 / n, 1e-3, 1.0 - 1e-3)
        mu = np.sum(body_mass * log_x, axis=1) / w1
        var = np.sum(body_mass * (log_x - mu[:, None]) ** 2, axis=1) / w1
        sigma = np.maximum(np.sqrt(np.maximum(var, 1e-8)), 0.05)
        tail_mass = c * (1.0 - resp)
        excess = np.empty(len(lo))
        total_tail = np.empty(len(lo))
        for r0, r1, first, log_excess in groups:
            tail = tail_mass[r0:r1, first:]
            excess[r0:r1] = np.sum(tail * log_excess, axis=1)
            total_tail[r0:r1] = tail.sum(axis=1)
        # a row without tail mass keeps its (already in-bounds) alpha
        update = (total_tail > 0.0) & (excess > 0.0)
        alpha = np.clip(
            np.divide(total_tail, excess, out=alpha.copy(), where=update),
            *_ALPHA_BOUNDS,
        )
    for i, row in enumerate(rows.tolist()):
        final[row] = (body_weight[i], mu[i], sigma[i], alpha[i])
    return [
        {
            "body_weight": float(w),
            "median": float(np.exp(m)),
            "sigma": float(sd),
            "alpha": float(al),
            "minimum": float(t),
            "maximum": float(h),
        }
        for (t, h, _), (w, m, sd, al) in zip(runs, final)
    ]


def _fit_lognormal_pareto(
    acc: CalibrationAccumulator, *, restarts: int, seed: int
) -> dict:
    """Binned EM over a threshold grid with seeded random restarts.

    Every (threshold, restart) pair is one EM run, and all runs are
    fitted together as the rows of one array, in blocks of
    ``_EM_BLOCK_ROWS`` rows so memory stays bounded for any
    ``restarts``.  Restart initialisations come from
    ``SeedSequence(seed).spawn``, drawn threshold by threshold, so the
    winning parameters are a pure function of the accumulator state
    and the seed — reproducible across chunkings and backends.  The
    runs are scored threshold-major, then by restart, and the first
    strictly best grouped log-likelihood wins.
    """
    counts = acc.counts.astype(np.float64)
    occupied = counts > 0
    c = counts[occupied]
    log_x = acc.log_midpoints[occupied]
    x = np.exp(log_x)
    n = float(c.sum())
    children = np.random.SeedSequence(seed).spawn(restarts)
    runs = []
    for threshold in _mixture_thresholds(acc):
        hi = max(acc.max_size, threshold * (1.0 + 1e-9))
        below = x < threshold
        if below.any():
            weight0 = float(c[below].sum()) / n
            moments = _weighted_log_moments(c[below], log_x[below])
        else:
            weight0 = 0.5
            moments = _weighted_log_moments(c, log_x)
        for child in children:
            init = _em_start(
                weight0, moments, np.random.Generator(np.random.PCG64(child))
            )
            runs.append((threshold, hi, init))
    best_params = None
    best_ll = -np.inf
    for first in range(0, len(runs), _EM_BLOCK_ROWS):
        block = runs[first:first + _EM_BLOCK_ROWS]
        for params in _em_block(c, log_x, x, block):
            try:
                ll = _law_log_likelihood(acc, LognormalParetoMixture(**params))
            except ParameterError:
                continue
            if ll > best_ll:
                best_ll = ll
                best_params = params
    if best_params is None:
        raise FittingError(
            "lognormal_pareto EM failed to produce a valid fit for any "
            "threshold/restart combination"
        )
    return best_params


#: Each family's fitter and its count of FREE parameters for AIC/BIC
#: (the mixture pins its maximum to the sample max: 5 of its 6).
_FITTERS = {
    "lognormal": (2, lambda acc, restarts, seed: _fit_lognormal(acc)),
    "pareto": (3, lambda acc, restarts, seed: _fit_pareto(acc)),
    "exponential": (1, lambda acc, restarts, seed: _fit_exponential(acc)),
    "lognormal_pareto": (
        5,
        lambda acc, restarts, seed: _fit_lognormal_pareto(
            acc, restarts=restarts, seed=seed
        ),
    ),
}


# -- the fitting + selection drivers --------------------------------------


def _require_integer(name: str, value, *, minimum: int) -> int:
    try:
        value = operator.index(value)
    except TypeError:
        raise ParameterError(
            f"{name} must be an integer, got {value!r}"
        ) from None
    if value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value!r}")
    return value


def fit_family(
    acc: CalibrationAccumulator,
    family: str,
    *,
    restarts: int = 4,
    seed: int = 0,
) -> FamilyFit:
    """Fit one size-law family and score its goodness of fit."""
    acc.require_data()
    try:
        k, fitter = _FITTERS[family]
    except (KeyError, TypeError):
        raise ParameterError(
            f"unknown size-law family {family!r}; fittable families: "
            f"{CALIBRATION_FAMILIES}"
        ) from None
    restarts = _require_integer("restarts", restarts, minimum=1)
    seed = _require_integer("seed", seed, minimum=0)
    params = fitter(acc, restarts, seed)
    law = size_law(family, params)
    ll = _law_log_likelihood(acc, law)
    rmse, correlation = tail_qq(acc, family, params)
    return FamilyFit(
        family=family,
        params=params,
        n_params=k,
        log_likelihood=ll,
        aic=float(2.0 * k - 2.0 * ll),
        bic=float(k * np.log(acc.n) - 2.0 * ll),
        ks_statistic=_binned_ks(acc, law),
        tail_qq_rmse_log10=rmse,
        tail_qq_correlation=correlation,
    )


def fit_all_families(
    acc: CalibrationAccumulator,
    families=CALIBRATION_FAMILIES,
    *,
    restarts: int = 4,
    seed: int = 0,
) -> tuple[FamilyFit, ...]:
    """Fit every requested family against the same accumulator."""
    return tuple(
        fit_family(acc, family, restarts=restarts, seed=seed)
        for family in families
    )


def select_best(fits, criterion: str = "bic") -> FamilyFit:
    """Pick the winning family under a selection criterion."""
    fits = tuple(fits)
    if not fits:
        raise ParameterError("no family fits to select from")
    if criterion not in SELECTION_CRITERIA:
        raise ParameterError(
            f"selection criterion must be one of {SELECTION_CRITERIA}, "
            f"got {criterion!r}"
        )
    if criterion == "loglik":
        return max(fits, key=lambda fit: fit.log_likelihood)
    if criterion == "ks":
        return min(fits, key=lambda fit: fit.ks_statistic)
    return min(fits, key=lambda fit: getattr(fit, criterion))
