"""Dynamic network events: link outages with reroute, demand flash crowds.

Events perturb a network run mid-trace, deterministically:

* :class:`LinkOutage` — a fibre fails for a window.  Demands whose
  routed paths cross the failed link are re-routed on the reduced
  topology *for that window only* (packets switch paths by timestamp,
  like an IGP reconvergence); demands left disconnected lose their
  packets for the window.  Unaffected demands keep their paths bit for
  bit.
* :class:`FlashCrowd` — one demand's flow arrival intensity is scaled by
  ``factor`` during a window (a flash crowd, or a DoS onset when the
  factor is large).  Implemented as a piecewise-constant
  non-homogeneous Poisson process, which stays cell-sampleable, so the
  streamed synthesis remains chunk/worker-invariant.

:func:`routing_timeline` compiles a topology, demand matrix, routing
strategy and event list into per-demand ``(t0, t1, RoutedPaths | None)``
segments — the pure-data object the engine's per-link packet filter
evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import check_positive
from ..exceptions import ParameterError, TopologyError
from ..netsim.arrivals import NonHomogeneousPoissonArrivals, PoissonArrivals
from .demands import DemandMatrix
from .routing import RoutedPaths, RoutingStrategy
from .topology import Topology

__all__ = [
    "LinkOutage",
    "FlashCrowd",
    "RouteSegment",
    "routing_timeline",
    "apply_flash_crowds",
]


@dataclass(frozen=True)
class LinkOutage:
    """A fibre failure window (both directions of a bidirectional link)."""

    link: tuple[str, str]
    start: float
    duration: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "link", (str(self.link[0]), str(self.link[1]))
        )
        if float(self.start) < 0.0:
            raise ParameterError(f"outage start must be >= 0, got {self.start!r}")
        check_positive("outage duration", self.duration)

    @property
    def end(self) -> float:
        return float(self.start) + float(self.duration)


@dataclass(frozen=True)
class FlashCrowd:
    """A window during which one demand's arrival rate scales by ``factor``."""

    demand: int
    start: float
    duration: float
    factor: float = 4.0

    def __post_init__(self) -> None:
        if int(self.demand) < 0:
            raise ParameterError(
                f"flash-crowd demand index must be >= 0, got {self.demand!r}"
            )
        if float(self.start) < 0.0:
            raise ParameterError(
                f"flash-crowd start must be >= 0, got {self.start!r}"
            )
        check_positive("flash-crowd duration", self.duration)
        check_positive("flash-crowd factor", self.factor)

    @property
    def end(self) -> float:
        return float(self.start) + float(self.duration)


@dataclass(frozen=True)
class RouteSegment:
    """One time window of a demand's routing (``routed=None``: blackholed)."""

    t0: float
    t1: float
    routed: RoutedPaths | None


def _breakpoints(outages, duration: float) -> list[float]:
    points = {0.0, float(duration)}
    for outage in outages:
        if outage.start < duration:
            points.add(float(outage.start))
            points.add(min(outage.end, float(duration)))
    return sorted(points)


def routing_timeline(
    topology: Topology,
    demands: DemandMatrix,
    routing: RoutingStrategy,
    outages=(),
    *,
    duration: float | None = None,
) -> list[list[RouteSegment]]:
    """Per-demand route segments over the capture, honouring outages.

    For each inter-breakpoint window, demands whose baseline paths avoid
    every failed fibre keep them untouched; affected demands are
    re-routed on the reduced topology (``None`` when disconnected).
    """
    outages = list(outages)
    for outage in outages:
        if not isinstance(outage, LinkOutage):
            raise ParameterError(
                f"expected LinkOutage entries, got {type(outage).__name__}"
            )
        topology.fate_group(*outage.link)  # validates the link exists
    if duration is None:
        duration = demands.duration
    baseline = [
        routing.route(topology, demand.source, demand.sink)
        for demand in demands
    ]
    timeline: list[list[RouteSegment]] = [[] for _ in demands.demands]
    points = _breakpoints(outages, float(duration))
    for t0, t1 in zip(points[:-1], points[1:]):
        if t1 <= t0:
            continue
        failed = frozenset(
            group
            for outage in outages
            if outage.start <= t0 and outage.end >= t1
            and outage.start < outage.end
            for group in topology.fate_group(*outage.link)
        )
        if not failed:
            for segments, routed in zip(timeline, baseline):
                segments.append(RouteSegment(t0, t1, routed))
            continue
        reduced = topology.without_links(failed)  # memoised per set
        for segments, routed, demand in zip(
            timeline, baseline, demands.demands
        ):
            if not (routed.links() & failed):
                segments.append(RouteSegment(t0, t1, routed))
                continue
            try:
                rerouted = routing.route(reduced, demand.source, demand.sink)
            except TopologyError:
                rerouted = None  # disconnected: packets are blackholed
            segments.append(RouteSegment(t0, t1, rerouted))
    return timeline


@dataclass(frozen=True)
class _CrowdRate:
    """A flash-crowded intensity: ``rate`` scaled inside each window.

    A module-level callable rather than a closure, so a crowded demand's
    cell tasks pickle onto the process backend.
    """

    rate: float
    windows: tuple[tuple[float, float, float], ...]

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        rate = np.full(t.shape, self.rate)
        for start, end, factor in self.windows:
            rate = np.where((t >= start) & (t < end), rate * factor, rate)
        return rate


def apply_flash_crowds(demands: DemandMatrix, crowds) -> DemandMatrix:
    """A demand matrix with flash-crowd arrival scaling applied.

    Each targeted demand's (Poisson) arrivals become a
    piecewise-constant non-homogeneous Poisson process: rate ``lambda``
    outside the windows, scaled inside.  Several crowds may target one
    demand (their factors multiply where windows overlap).
    Cell-sampleable, so streamed synthesis stays chunk/worker-invariant.
    """
    crowds = list(crowds)
    if not crowds:
        return demands
    import dataclasses

    from ..synthesis import default_warmup

    duration = demands.duration
    # the arrival process is sampled on the horizon [0, warmup +
    # duration) and shifted to capture time afterwards (see
    # repro.synthesis.cells), so capture-time windows move by the
    # workload's warm-up (the synthesis engine's default lead-in)
    warmup = default_warmup(duration)
    by_demand: dict[int, list[FlashCrowd]] = {}
    for crowd in crowds:
        if not isinstance(crowd, FlashCrowd):
            raise ParameterError(
                f"expected FlashCrowd entries, got {type(crowd).__name__}"
            )
        index = int(crowd.demand)
        if index >= len(demands):
            raise ParameterError(
                f"flash crowd targets demand {index}, but the matrix has "
                f"only {len(demands)} demands"
            )
        by_demand.setdefault(index, []).append(crowd)
    scaled = list(demands.demands)
    for index, bursts in by_demand.items():
        demand = scaled[index]
        arrivals = demand.workload.arrivals
        if arrivals is not None and not isinstance(arrivals, PoissonArrivals):
            raise ParameterError(
                "flash crowds only apply to Poisson-arrival demands, got "
                f"{type(arrivals).__name__} on demand {index}"
            )
        base_rate = (
            arrivals.rate
            if isinstance(arrivals, PoissonArrivals)
            else demand.workload.arrival_rate
        )
        windows = tuple(
            (
                float(burst.start) + warmup,
                min(float(burst.end), duration) + warmup,
                float(burst.factor),
            )
            for burst in bursts
        )
        rate_fn = _CrowdRate(base_rate, windows)
        bound = base_rate * float(
            np.prod([max(1.0, factor) for _, _, factor in windows])
        )
        crowded = NonHomogeneousPoissonArrivals(rate_fn, rate_max=bound)
        scaled[index] = dataclasses.replace(
            demand,
            workload=dataclasses.replace(demand.workload, arrivals=crowded),
        )
    return DemandMatrix(scaled)
