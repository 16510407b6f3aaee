"""Second-order structure of the total rate — Theorem 2 of the paper.

For the Poisson shot-noise ``R(t) = sum_n X_n(t - T_n)`` the centred
autocovariance function is (Theorem 2)

.. math::

   \\Gamma(\\tau) = \\lambda\\, E\\big[ (S^2/D)\\, a(|\\tau|/D) \\big],
   \\quad a(\\theta) = \\int_0^{1-\\theta} g(v)\\, g(v+\\theta)\\, dv ,

with ``g`` the shot's profile; ``a`` depends on the shot alone, so it is
tabulated once per call and summed over duration-sorted flows.
Campbell's theorem gives the spectral density of the centred process as
``Psi(w) = lambda * E[|X_hat(w)|^2]`` where ``X_hat`` is the Fourier
transform of the shot.  ``Gamma(0)`` recovers Corollary 2 (the variance).

These functions power Figure 8 (autocorrelation of the total rate over
0-400 ms), the averaged-variance correction of section V-F, and the linear
predictor of section VII-B.
"""

from __future__ import annotations

import numpy as np

from .._util import as_1d_float_array, check_positive, leggauss_nodes
from ..exceptions import ParameterError
from .ensemble import EmpiricalEnsemble, FlowEnsemble
from .shots import Shot

__all__ = [
    "autocovariance",
    "autocorrelation",
    "spectral_density",
    "correlation_horizon",
]

#: Segments of the piecewise-quadratic table of ``a``.  Nodes
#: ``sin^2(pi u / 2)``, ``u`` uniform, cluster where ``a`` is least smooth.
_SEGMENTS = 4096
_THETA = np.sin(0.5 * np.pi * np.linspace(0.0, 1.0, 2 * _SEGMENTS + 1)) ** 2


def _flow_arrays(ensemble: FlowEnsemble, max_flows: int | None, seed: int = 0):
    """Extract (sizes, durations) arrays from an ensemble, subsampling if big."""
    if isinstance(ensemble, EmpiricalEnsemble):
        sizes, durations = ensemble.sizes, ensemble.durations
    else:
        reference = getattr(ensemble, "reference", None)
        if reference is not None:
            sizes, durations = reference.sizes, reference.durations
        else:
            sizes, durations = ensemble.sample(max_flows or 50_000, seed)
    if max_flows is not None and sizes.size > max_flows:
        rng = np.random.default_rng(seed)
        idx = rng.choice(sizes.size, size=max_flows, replace=False)
        sizes, durations = sizes[idx], durations[idx]
    return sizes, durations


def _profile_table(shot: Shot) -> np.ndarray:
    """Coefficients ``(c0, c1, c2)`` of the parabola through each segment's
    ends and midpoint: ``a(theta) ~ c0 + c1 theta + c2 theta^2``."""
    a = shot.profile_autocovariance(_THETA)
    t0, tm, t1 = _THETA[:-1:2], _THETA[1::2], _THETA[2::2]
    y0, ym, y1 = a[:-1:2], a[1::2], a[2::2]
    d1 = (ym - y0) / (tm - t0)
    d2 = ((y1 - ym) / (t1 - tm) - d1) / (t1 - t0)
    return np.stack([y0 - d1 * t0 + d2 * t0 * tm, d1 - d2 * (t0 + tm), d2])


def autocovariance(
    arrival_rate: float,
    ensemble: FlowEnsemble,
    shot: Shot,
    lags,
    *,
    max_flows: int | None = 200_000,
) -> np.ndarray:
    """Theorem 2: ``Gamma(tau)`` evaluated at each lag (seconds).

    Lags may be negative (the function is even).  Returns bytes^2/s^2 when
    sizes are in bytes and durations in seconds.

    A flow sits in segment ``k`` iff ``tau/theta_{k+1} < D <= tau/theta_k``,
    where its term is ``S^2/D (c0 + c1 tau/D + c2 tau^2/D^2)``; so per lag,
    one ``searchsorted`` over the longest-first durations and prefix sums
    of ``S^2/D^j`` (j = 1..3) sum the interpolant exactly over all flows.
    The table matches ``shot.profile_autocovariance`` to ~3e-10 a(0) for
    power shots with b in [0, 8] (exactly for b = 0), so the result is
    within ~1e-9 Gamma(0) of the per-flow ``shot.autocovariance_integral``
    for any ensemble.  ``Gamma(0) = lambda a(0) E[S^2/D]``, and a lag
    beyond every duration gives exactly 0.
    """
    arrival_rate = check_positive("arrival_rate", arrival_rate)
    lags = np.atleast_1d(np.asarray(lags, dtype=np.float64))
    sizes, durations = _flow_arrays(ensemble, max_flows)
    coeffs = _profile_table(shot)
    # longest first: a far lag's segment sums never difference the large
    # S^2/D^3 of short flows
    order = np.argsort(-durations)
    longest, ascending = durations[order], -durations[order]
    weight = sizes[order] ** 2 / longest
    sums = np.zeros((3, weight.size + 1))
    np.cumsum([weight, weight / longest, weight / longest**2], 1, out=sums[:, 1:])
    out = np.empty(lags.size, dtype=np.float64)
    for i, lag in enumerate(np.abs(lags.ravel())):
        # below[k]: flows with D > lag / theta_{k+1}, i.e. in segments <= k
        below = np.searchsorted(ascending, -lag / _THETA[2::2], side="left")
        segment = np.diff(sums[:, below], axis=1, prepend=0.0)
        out[i] = np.sum(np.array([[1.0], [lag], [lag * lag]]) * coeffs * segment)
    return (arrival_rate / weight.size * out).reshape(lags.shape)


def autocorrelation(
    arrival_rate: float,
    ensemble: FlowEnsemble,
    shot: Shot,
    lags,
    *,
    max_flows: int | None = 200_000,
) -> np.ndarray:
    """Autocorrelation coefficient ``Gamma(tau) / Gamma(0)`` (Figure 8)."""
    lags = np.atleast_1d(np.asarray(lags, dtype=np.float64))
    gamma = autocovariance(
        arrival_rate, ensemble, shot, np.concatenate([[0.0], lags.ravel()]),
        max_flows=max_flows,
    )
    gamma0 = gamma[0]
    if gamma0 <= 0.0:
        raise ParameterError("variance Gamma(0) must be positive")
    return (gamma[1:] / gamma0).reshape(lags.shape)


def spectral_density(
    arrival_rate: float,
    ensemble: FlowEnsemble,
    shot: Shot,
    frequencies,
    *,
    max_flows: int | None = 5_000,
    quad_order: int = 128,
) -> np.ndarray:
    """Campbell's theorem: ``Psi(f) = lambda E[|X_hat(2 pi f)|^2]``.

    ``frequencies`` are in Hz.  The shot transform is evaluated by
    Gauss-Legendre quadrature on the dimensionless profile:
    ``X_hat(w) = S * integral_0^1 g(v) exp(-i w D v) dv``.

    The two-sided density integrates (over all f) to the variance.
    """
    arrival_rate = check_positive("arrival_rate", arrival_rate)
    freqs = as_1d_float_array("frequencies", np.atleast_1d(frequencies))
    sizes, durations = _flow_arrays(ensemble, max_flows)
    nodes, weights = leggauss_nodes(quad_order)
    profile = shot.profile(nodes)  # (q,)
    # phase[f, flow, node] = 2 pi f * D_flow * node
    omega = 2.0 * np.pi * freqs
    phase = omega[:, None, None] * durations[None, :, None] * nodes[None, None, :]
    kernel = (weights * profile)[None, None, :] * np.exp(-1j * phase)
    transform = sizes[None, :] * np.sum(kernel, axis=-1)  # (f, flow)
    return arrival_rate * np.mean(np.abs(transform) ** 2, axis=1)


def correlation_horizon(
    arrival_rate: float,
    ensemble: FlowEnsemble,
    shot: Shot,
    threshold: float = 0.5,
    *,
    max_lag: float | None = None,
    points: int = 256,
) -> float:
    """Smallest lag at which the autocorrelation drops below ``threshold``.

    Section VII-B notes that prediction only works over horizons comparable
    to the mean flow duration; this helper quantifies that horizon.  Returns
    ``max_lag`` if the correlation never drops below the threshold.
    """
    if not 0.0 < threshold < 1.0:
        raise ParameterError(f"threshold must be in (0,1), got {threshold}")
    if max_lag is None:
        max_lag = 4.0 * ensemble.mean_duration
    max_lag = check_positive("max_lag", max_lag)
    lags = np.linspace(0.0, max_lag, points + 1)[1:]
    rho = autocorrelation(arrival_rate, ensemble, shot, lags)
    below = np.nonzero(rho < threshold)[0]
    if below.size == 0:
        return float(max_lag)
    return float(lags[below[0]])
