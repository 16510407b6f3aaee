"""Internal helpers shared across the repro package.

Small, dependency-free utilities: argument validation, RNG normalisation
and cached Gauss-Legendre quadrature nodes.  Nothing in this module is part
of the public API.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterable

import numpy as np

from .exceptions import ParameterError

__all__ = [
    "as_rng",
    "check_integer",
    "check_positive",
    "check_nonnegative",
    "check_probability",
    "check_in_range",
    "as_1d_float_array",
    "leggauss_nodes",
    "broadcast_flows",
]


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a numpy Generator from a seed, a Generator, or None."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def check_integer(name: str, value, *, minimum: int) -> int:
    """Validate that ``value`` is an integer (not a float) >= ``minimum``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ParameterError(
            f"{name} must be an integer, got {value!r}"
        ) from None
    if value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value!r}")
    return value


def check_positive(name: str, value: float) -> float:
    """Validate that ``value`` is a finite, strictly positive scalar."""
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ParameterError(f"{name} must be finite and > 0, got {value!r}")
    return value


def check_nonnegative(name: str, value: float) -> float:
    """Validate that ``value`` is a finite, non-negative scalar."""
    value = float(value)
    if not np.isfinite(value) or value < 0.0:
        raise ParameterError(f"{name} must be finite and >= 0, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Validate that ``value`` lies strictly inside (0, 1)."""
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ParameterError(f"{name} must lie in (0, 1), got {value!r}")
    return value


def check_in_range(
    name: str, value: float, low: float, high: float, *, inclusive: bool = True
) -> float:
    """Validate that ``value`` lies in [low, high] (or (low, high))."""
    value = float(value)
    if inclusive:
        ok = low <= value <= high
    else:
        ok = low < value < high
    if not ok:
        bracket = "[]" if inclusive else "()"
        raise ParameterError(
            f"{name} must lie in {bracket[0]}{low}, {high}{bracket[1]}, got {value!r}"
        )
    return value


def as_1d_float_array(name: str, values: Iterable[float]) -> np.ndarray:
    """Convert to a 1-D float64 array, rejecting empty or non-finite input."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size == 0:
        raise ParameterError(f"{name} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} must contain only finite values")
    return arr


@lru_cache(maxsize=16)
def leggauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes/weights on [0, 1].

    Returns ``(x, w)`` such that ``sum(w * f(x)) ~= integral_0^1 f``.
    """
    if order < 1:
        raise ParameterError(f"quadrature order must be >= 1, got {order}")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def broadcast_flows(
    sizes: Iterable[float], durations: Iterable[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Validate and broadcast per-flow size/duration arrays.

    Sizes must be > 0 (bytes or bits), durations must be > 0 (seconds):
    the paper discards single-packet flows precisely because their duration
    would be zero (section III).
    """
    s = as_1d_float_array("sizes", sizes)
    d = as_1d_float_array("durations", durations)
    if s.shape != d.shape:
        raise ParameterError(
            f"sizes and durations must have the same length, "
            f"got {s.size} and {d.size}"
        )
    if np.any(s <= 0):
        raise ParameterError("flow sizes must be strictly positive")
    if np.any(d <= 0):
        raise ParameterError(
            "flow durations must be strictly positive "
            "(single-packet flows must be discarded upstream)"
        )
    return s, d
