"""Laplace transform, cumulants and distribution of the total rate.

Theorem 1 of the paper gives the Laplace-Stieltjes transform (LST) of the
stationary total rate ``R``:

.. math::

   E[e^{-sR}] = \\exp\\Big(-\\lambda\\,
       E\\Big[\\int_0^{D} \\big(1 - e^{-s X(u)}\\big)\\,du\\Big]\\Big).

Expanding the log of the transform in powers of ``s`` shows that the n-th
*cumulant* of ``R`` is ``kappa_n = lambda E[integral_0^D X(u)^n du]``
(Corollary 3 in cumulant form; ``kappa_1`` is Corollary 1 because
``integral X = S``, ``kappa_2`` is Corollary 2).

The same log-transform evaluated on the imaginary axis is the
characteristic function, which we invert numerically (Gil-Pelaez) to obtain
the full first-order distribution of the rate — what the paper obtains "by
inverting the LST" — plus a Chernoff bound for the tail via the
large-deviations route the paper cites ([23]).
"""

from __future__ import annotations

import numpy as np

from .._util import check_positive, leggauss_nodes
from ..exceptions import ModelError, ParameterError
from .covariance import _flow_arrays
from .ensemble import FlowEnsemble
from .shots import Shot

__all__ = [
    "cumulant",
    "cumulants",
    "skewness",
    "excess_kurtosis",
    "log_laplace_transform",
    "laplace_transform",
    "characteristic_function",
    "reference_characteristic_function",
    "rate_pdf",
    "chernoff_tail_bound",
]

_DEFAULT_QUAD_ORDER = 48
_DEFAULT_MAX_FLOWS = 20_000

#: Cap on the omegas x flows x nodes broadcast block (complex128
#: elements) of the vectorized characteristic function.  Sized to keep
#: the phase tensor cache-resident (the kernel is exp/bandwidth-bound):
#: a bigger block is slower, a smaller one re-pays Python dispatch.
_OMEGA_BLOCK_ELEMENTS = 131_072


def cumulant(
    order: int, arrival_rate: float, ensemble: FlowEnsemble, shot: Shot
) -> float:
    """n-th cumulant ``kappa_n = lambda E[integral_0^D X^n du]``."""
    arrival_rate = check_positive("arrival_rate", arrival_rate)
    return arrival_rate * ensemble.expect(
        lambda s, d: shot.moment_integral(order, s, d)
    )


def cumulants(
    n: int, arrival_rate: float, ensemble: FlowEnsemble, shot: Shot
) -> np.ndarray:
    """First ``n`` cumulants ``[kappa_1, ..., kappa_n]``."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    return np.array(
        [cumulant(k, arrival_rate, ensemble, shot) for k in range(1, n + 1)]
    )


def skewness(arrival_rate: float, ensemble: FlowEnsemble, shot: Shot) -> float:
    """``kappa_3 / kappa_2^{3/2}`` — shrinks as ``1/sqrt(lambda)``.

    Quantifies how fast the Gaussian approximation of section V-E becomes
    accurate as flows aggregate.
    """
    k2 = cumulant(2, arrival_rate, ensemble, shot)
    k3 = cumulant(3, arrival_rate, ensemble, shot)
    return k3 / k2**1.5


def excess_kurtosis(
    arrival_rate: float, ensemble: FlowEnsemble, shot: Shot
) -> float:
    """``kappa_4 / kappa_2^2`` — shrinks as ``1/lambda``."""
    k2 = cumulant(2, arrival_rate, ensemble, shot)
    k4 = cumulant(4, arrival_rate, ensemble, shot)
    return k4 / k2**2


def _shot_exponent_integral(
    transform_of_rate,
    ensemble: FlowEnsemble,
    shot: Shot,
    *,
    quad_order: int = _DEFAULT_QUAD_ORDER,
    max_flows: int | None = _DEFAULT_MAX_FLOWS,
) -> complex:
    """``E[integral_0^D h(X(u)) du]`` for a scalar function ``h``.

    ``transform_of_rate`` receives the per-(flow, node) rate matrix and must
    return same-shape values; the integral over ``u`` becomes
    ``D * sum_q w_q h((S/D) g(v_q))``.
    """
    sizes, durations = _flow_arrays(ensemble, max_flows)
    nodes, weights = leggauss_nodes(quad_order)
    profile = shot.profile(nodes)
    rates = (sizes / durations)[:, None] * profile[None, :]
    values = transform_of_rate(rates)
    per_flow = durations * (values @ weights)
    return complex(np.mean(per_flow))


def log_laplace_transform(
    s: float,
    arrival_rate: float,
    ensemble: FlowEnsemble,
    shot: Shot,
    *,
    quad_order: int = _DEFAULT_QUAD_ORDER,
    max_flows: int | None = _DEFAULT_MAX_FLOWS,
) -> float:
    """``log E[e^{-sR}]`` from Theorem 1 (real ``s >= 0``)."""
    arrival_rate = check_positive("arrival_rate", arrival_rate)
    s = float(s)
    if s < 0:
        raise ParameterError(f"s must be >= 0 for the LST, got {s}")
    expectation = _shot_exponent_integral(
        lambda x: 1.0 - np.exp(-s * x),
        ensemble,
        shot,
        quad_order=quad_order,
        max_flows=max_flows,
    )
    return -arrival_rate * expectation.real


def laplace_transform(
    s: float,
    arrival_rate: float,
    ensemble: FlowEnsemble,
    shot: Shot,
    **kwargs,
) -> float:
    """``E[e^{-sR}]`` (Theorem 1)."""
    return float(
        np.exp(log_laplace_transform(s, arrival_rate, ensemble, shot, **kwargs))
    )


def characteristic_function(
    omega,
    arrival_rate: float,
    ensemble: FlowEnsemble,
    shot: Shot,
    *,
    quad_order: int = _DEFAULT_QUAD_ORDER,
    max_flows: int | None = _DEFAULT_MAX_FLOWS,
) -> np.ndarray:
    """``phi(w) = E[e^{i w R}] = exp(lambda E[integral (e^{iwX}-1) du])``.

    Vectorized over ``omega``: each block of frequencies evaluates the
    ``(omega, flow, node)`` phase tensor in one pass and contracts the
    quadrature and flow axes with matrix products, so the Python-level
    cost is O(n_omega / block) instead of O(n_omega) — the inner loop
    the Gil-Pelaez inversion of :func:`rate_pdf` spends its time in.
    The per-omega loop survives as
    :func:`reference_characteristic_function` (equivalence-tested).
    """
    arrival_rate = check_positive("arrival_rate", arrival_rate)
    omegas = np.atleast_1d(np.asarray(omega, dtype=np.float64))
    sizes, durations = _flow_arrays(ensemble, max_flows)
    nodes, weights = leggauss_nodes(quad_order)
    profile = shot.profile(nodes)
    rates = (sizes / durations)[:, None] * profile[None, :]  # (flow, node)
    flat = omegas.ravel()
    out = np.empty(flat.shape, dtype=np.complex128)
    block = max(1, _OMEGA_BLOCK_ELEMENTS // max(rates.size, 1))
    for i in range(0, flat.size, block):
        w = flat[i: i + block]
        values = np.exp(1j * w[:, None, None] * rates[None, :, :])
        values -= 1.0
        per_flow = durations[None, :] * (values @ weights)  # (omega, flow)
        expectation = np.mean(per_flow, axis=1)
        out[i: i + block] = np.exp(arrival_rate * expectation)
    return out.reshape(omegas.shape)


def reference_characteristic_function(
    omega,
    arrival_rate: float,
    ensemble: FlowEnsemble,
    shot: Shot,
    *,
    quad_order: int = _DEFAULT_QUAD_ORDER,
    max_flows: int | None = _DEFAULT_MAX_FLOWS,
) -> np.ndarray:
    """Per-omega loop evaluation of ``phi`` — the vectorization oracle."""
    arrival_rate = check_positive("arrival_rate", arrival_rate)
    omegas = np.atleast_1d(np.asarray(omega, dtype=np.float64))
    out = np.empty(omegas.shape, dtype=np.complex128)
    for i, w in enumerate(omegas.ravel()):
        expectation = _shot_exponent_integral(
            lambda x, w=w: np.exp(1j * w * x) - 1.0,
            ensemble,
            shot,
            quad_order=quad_order,
            max_flows=max_flows,
        )
        out.ravel()[i] = np.exp(arrival_rate * expectation)
    return out


def rate_pdf(
    arrival_rate: float,
    ensemble: FlowEnsemble,
    shot: Shot,
    x=None,
    *,
    n_omega: int = 512,
    span_sigmas: float = 6.0,
    quad_order: int = _DEFAULT_QUAD_ORDER,
    max_flows: int | None = _DEFAULT_MAX_FLOWS,
) -> tuple[np.ndarray, np.ndarray]:
    """First-order distribution of the rate by numerically inverting the LST.

    Returns ``(x, pdf)``.  The characteristic function of a shot noise with
    many active flows decays like a Gaussian of the same variance, so the
    integration window ``|w| <= 8/sigma`` captures it to machine precision.
    """
    k1 = cumulant(1, arrival_rate, ensemble, shot)
    k2 = cumulant(2, arrival_rate, ensemble, shot)
    sigma = float(np.sqrt(k2))
    if x is None:
        x = np.linspace(
            max(k1 - span_sigmas * sigma, 0.0), k1 + span_sigmas * sigma, 201
        )
    x = np.asarray(x, dtype=np.float64)
    omega_max = 8.0 / sigma
    omegas = np.linspace(0.0, omega_max, n_omega)
    phi = characteristic_function(
        omegas, arrival_rate, ensemble, shot,
        quad_order=quad_order, max_flows=max_flows,
    )
    # pdf(x) = (1/pi) * integral_0^inf Re[phi(w) e^{-iwx}] dw
    kernel = np.real(phi[None, :] * np.exp(-1j * omegas[None, :] * x[:, None]))
    pdf = np.trapezoid(kernel, omegas, axis=1) / np.pi
    return x, np.maximum(pdf, 0.0)


def chernoff_tail_bound(
    level: float,
    arrival_rate: float,
    ensemble: FlowEnsemble,
    shot: Shot,
    *,
    quad_order: int = _DEFAULT_QUAD_ORDER,
    max_flows: int | None = _DEFAULT_MAX_FLOWS,
) -> float:
    """Large-deviations upper bound ``P(R > level) <= exp(psi(t) - t*level)``.

    ``psi(t) = lambda E[integral (e^{tX} - 1) du]`` is the log-MGF of ``R``;
    the bound is optimised over ``t > 0``.  This is the sharper tail
    estimate the paper points to via [23] when the Gaussian approximation
    is too rough.  Returns 1.0 when ``level <= E[R]`` (the bound is vacuous
    below the mean).
    """
    level = check_positive("level", level)
    mean = cumulant(1, arrival_rate, ensemble, shot)
    if level <= mean:
        return 1.0
    sizes, durations = _flow_arrays(ensemble, max_flows)
    peak = float(np.max(sizes / durations)) * float(
        np.max(shot.profile(np.linspace(0.0, 1.0, 257)))
    )
    if peak <= 0:
        raise ModelError("cannot bound the tail of a zero-rate ensemble")
    t_max = 500.0 / peak  # keep exp(t X) within float range

    def negative_exponent(t: float) -> float:
        psi = arrival_rate * _shot_exponent_integral(
            lambda x, t=t: np.expm1(t * x),
            ensemble,
            shot,
            quad_order=quad_order,
            max_flows=max_flows,
        ).real
        return psi - t * level

    from scipy.optimize import minimize_scalar  # on first use

    result = minimize_scalar(
        negative_exponent, bounds=(1e-12, t_max), method="bounded"
    )
    return float(min(1.0, np.exp(result.fun)))
