"""Online (EWMA) estimation of the model parameters — section V-G.

The paper computes its parameters offline but sketches the operational
version: when the flow-accounting tool reports a finished flow of size
``S`` and duration ``D``, update

    E_hat <- (1 - eps) E_hat + eps * value

for each of ``E[S]``, ``E[S^2/D]`` and the mean inter-arrival time (whose
reciprocal estimates ``lambda``) — exactly the EWMA TCP uses for its RTT.
:class:`OnlineFlowStatistics` implements that router-side loop and emits
:class:`~repro.core.parameters.FlowStatistics` snapshots on demand.
"""

from __future__ import annotations

import numpy as np

from .._util import check_positive
from ..core.parameters import FlowStatistics
from ..exceptions import ParameterError
from ..kernels import ewma as _ewma_kernel

__all__ = [
    "EwmaEstimator",
    "OnlineFlowStatistics",
    "ewma_final",
    "replay_flow_statistics",
]


def ewma_final(values, eps: float) -> float:
    """Final value of the EWMA recurrence over a whole observation array.

    Computes ``y_i = (1 - eps) * y_{i-1} + eps * x_i`` (first observation
    initialises, exactly like :class:`EwmaEstimator`) through
    :func:`repro.kernels.ewma`, the blocked closed-form solution of the
    linear recurrence — per block of ``B`` observations,

        ``y <- (1-eps)^B * y + eps * sum_j (1-eps)^(B-1-j) * x_j``

    — one dot product with a precomputed geometric weight vector instead
    of a Python loop per observation.  Blocking keeps the exponents small
    enough that the weights never underflow, so it matches the
    sequential loop to floating-point accumulation accuracy (~1e-12
    relative) at any length.
    """
    x = np.ascontiguousarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ParameterError("ewma_final needs a non-empty 1-d array")
    if not 0.0 < eps <= 1.0:
        raise ParameterError(f"eps must be in (0, 1], got {eps}")
    return _ewma_kernel(x, eps)


def replay_flow_statistics(flows, eps: float = 0.01) -> FlowStatistics | None:
    """Vectorized replay of a flow set through the section V-G EWMAs.

    Equivalent to feeding every flow arrival (time-sorted) and departure
    (end-time-sorted) through :class:`OnlineFlowStatistics` one call at a
    time — the closed-form :func:`ewma_final` replaces the per-flow
    Python loop, which is what makes ``estimator="ewma"`` viable on
    million-flow traces.  Returns ``None`` while the estimators would not
    be ready (fewer than two arrivals or no departures), mirroring the
    loop's behaviour.  :class:`OnlineFlowStatistics` itself remains the
    implementation for true online (packet-by-packet) use.
    """
    starts = np.sort(np.asarray(flows.starts, dtype=np.float64))
    if starts.size < 2 or len(flows) == 0:
        return None
    gaps = np.diff(starts)
    order = np.argsort(flows.ends, kind="stable")
    sizes = np.asarray(flows.sizes, dtype=np.float64)[order]
    durations = np.asarray(flows.durations, dtype=np.float64)[order]
    if np.any(sizes <= 0.0):
        raise ParameterError("size must be > 0")
    if np.any(durations <= 0.0):
        raise ParameterError("duration must be > 0")
    mean_interarrival = ewma_final(gaps, eps)
    if mean_interarrival <= 0.0:
        return None
    return FlowStatistics(
        arrival_rate=1.0 / mean_interarrival,
        mean_size=ewma_final(sizes, eps),
        mean_square_size_over_duration=ewma_final(
            sizes * sizes / durations, eps
        ),
        mean_duration=ewma_final(durations, eps),
        flow_count=len(flows),
    )


class EwmaEstimator:
    """Exponentially weighted moving average with gain ``eps``.

    Smaller ``eps`` means a slower, steadier estimate (the paper's
    trade-off remark).  The first observation initialises the estimate.
    """

    def __init__(self, eps: float) -> None:
        if not 0.0 < eps <= 1.0:
            raise ParameterError(f"eps must be in (0, 1], got {eps}")
        self.eps = float(eps)
        self._value: float | None = None
        self.n_updates = 0

    def update(self, value: float) -> float:
        """Fold one observation in; returns the new estimate."""
        value = float(value)
        if self._value is None:
            self._value = value
        else:
            self._value = (1.0 - self.eps) * self._value + self.eps * value
        self.n_updates += 1
        return self._value

    @property
    def value(self) -> float:
        if self._value is None:
            raise ParameterError("estimator has seen no data yet")
        return self._value

    @property
    def initialized(self) -> bool:
        return self._value is not None

    def reset(self) -> None:
        self._value = None
        self.n_updates = 0


class OnlineFlowStatistics:
    """Streaming estimator of the model's three parameters.

    Feed it flow *arrival* times (for ``lambda``) and flow *departure*
    records (for ``E[S]`` and ``E[S^2/D]``); ``snapshot()`` returns a
    :class:`FlowStatistics` usable by the model at any moment.
    """

    def __init__(self, eps: float = 0.01) -> None:
        self._mean_size = EwmaEstimator(eps)
        self._mean_sq_over_dur = EwmaEstimator(eps)
        self._mean_duration = EwmaEstimator(eps)
        self._mean_interarrival = EwmaEstimator(eps)
        self._last_arrival: float | None = None
        self._flows_seen = 0

    def observe_arrival(self, time: float) -> None:
        """Record a flow arrival instant (monotone non-decreasing)."""
        time = float(time)
        if self._last_arrival is not None:
            gap = time - self._last_arrival
            if gap < 0:
                raise ParameterError("arrival times must be non-decreasing")
            self._mean_interarrival.update(gap)
        self._last_arrival = time

    def observe_departure(self, size: float, duration: float) -> None:
        """Record a finished flow (size bytes, duration seconds)."""
        size = check_positive("size", size)
        duration = check_positive("duration", duration)
        self._mean_size.update(size)
        self._mean_sq_over_dur.update(size * size / duration)
        self._mean_duration.update(duration)
        self._flows_seen += 1

    @property
    def ready(self) -> bool:
        """True once every estimator has data."""
        return (
            self._mean_size.initialized
            and self._mean_sq_over_dur.initialized
            and self._mean_interarrival.initialized
            and self._mean_interarrival.value > 0.0
        )

    def snapshot(self) -> FlowStatistics:
        """Current three-parameter summary (raises until :attr:`ready`)."""
        if not self.ready:
            raise ParameterError(
                "need at least two arrivals and one departure before a snapshot"
            )
        return FlowStatistics(
            arrival_rate=1.0 / self._mean_interarrival.value,
            mean_size=self._mean_size.value,
            mean_square_size_over_duration=self._mean_sq_over_dur.value,
            mean_duration=self._mean_duration.value,
            flow_count=self._flows_seen,
        )
