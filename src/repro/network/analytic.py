"""Analytic per-link superposition: edge statistics + routing = link moments.

The paper's section VI-A / VII-A argument: flow statistics measured at
the network *edges* plus routing information give the model on every
internal link without monitoring it — means and variances of independent
Poisson shot-noise classes add, and a routed split of a Poisson flow
population is again Poisson with the arrival rate thinned by the split
fraction (so ECMP fractions scale ``lambda``, keeping the per-flow
laws).

This module is the one home of that moment-sum logic: declare a
:class:`~repro.network.Topology` and :class:`AnalyticDemand` entries,
and :func:`superpose_link_moments` returns every link's
:class:`LinkMoments` — mean, variance and the Gaussian capacity target
(:meth:`LinkMoments.required_capacity_bps`).

Demands are duck-typed: anything with ``source``, ``sink``,
``statistics`` (a :class:`~repro.core.parameters.FlowStatistics`) and
``shape_factor`` works.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .._util import as_rng, check_positive
from ..core.gaussian import normal_quantile
from ..core.parameters import FlowStatistics
from ..exceptions import ParameterError, TopologyError
from .routing import RoutingStrategy, ShortestPathRouting
from .topology import Topology

__all__ = [
    "AnalyticDemand",
    "LinkMoments",
    "superpose_link_moments",
    "workload_flow_statistics",
]


@dataclass
class LinkMoments:
    """Summed first/second moments of the demands crossing one link."""

    link: tuple[str, str]
    capacity_bps: float
    mean_rate: float = 0.0  # bytes/s
    variance: float = 0.0  # (bytes/s)^2
    arrival_rate: float = 0.0  # flows/s, thinned by split fractions
    n_demands: int = 0

    def required_capacity_bps(self, epsilon: float = 0.01) -> float:
        """Gaussian provisioning target ``8 (mean + F(eps) sigma)`` bits/s."""
        return 8.0 * (
            self.mean_rate + normal_quantile(epsilon) * np.sqrt(self.variance)
        )


@dataclass(frozen=True)
class AnalyticDemand:
    """A statistics-carrying OD demand for the moment-superposition path.

    The closed-form counterpart of a flow-population
    :class:`~repro.network.demands.NetworkDemand`: only the
    three-parameter summary travels, so whole what-if grids (growth
    factors x failure sets) evaluate in microseconds per cell.
    """

    source: str
    sink: str
    statistics: FlowStatistics
    shape_factor: float = 1.8  # parabolic default, as in Figures 10-11

    def __post_init__(self) -> None:
        check_positive("shape_factor", self.shape_factor)
        if self.source == self.sink:
            raise TopologyError("demand source and sink must differ")

    def scaled(self, factor: float) -> "AnalyticDemand":
        """This demand under ``factor`` x growth: ``lambda`` scales, the
        per-flow laws do not (the paper's aggregation-smoothing axis)."""
        return dataclasses.replace(
            self, statistics=self.statistics.scaled_arrivals(factor)
        )


def workload_flow_statistics(workload, *, samples: int = 50_000) -> FlowStatistics:
    """The three-parameter summary a workload's laws imply, closed form.

    Derives (``lambda``, ``E[S]``, ``E[S^2/D]``) from a
    :class:`~repro.netsim.LinkWorkload` *without synthesizing packets*:
    a seeded Monte Carlo over the size law (the same 12345 convention as
    :func:`~repro.netsim.workloads.wire_bytes_per_flow`), the
    deterministic TCP window schedule for transfer durations
    (``n_rounds x rtt`` — the update rule of the synthesiser, jitter
    averaging out), and the CBR rate law for the UDP fraction.  This is
    what lets a capacity sweep assess a cell analytically before
    deciding whether the full packet-level engine needs to run.
    """
    params = workload.tcp_params
    rng = as_rng(12345)
    sizes = np.asarray(
        workload.size_dist.rvs(size=samples, random_state=rng),
        dtype=np.float64,
    )
    sizes = np.maximum(sizes, 40.0)
    packets = np.maximum(np.ceil(sizes / params.mss), 1.0)
    wire = sizes + params.header_bytes * packets
    rtts = np.asarray(
        workload.rtt_dist.rvs(size=samples, random_state=rng),
        dtype=np.float64,
    )
    rates = np.asarray(
        workload.cbr_rate_dist.rvs(size=samples, random_state=rng),
        dtype=np.float64,
    )
    from ..synthesis.cells import _window_table

    _, cum_windows = _window_table(params, int(packets.max()))
    n_rounds = np.searchsorted(cum_windows, packets, side="left") + 1
    tcp_durations = n_rounds * rtts
    udp_durations = np.maximum(sizes / rates, 1e-3)
    udp = float(workload.address_space.udp_fraction)
    mix = lambda tcp_val, udp_val: float(  # noqa: E731
        (1.0 - udp) * tcp_val + udp * udp_val
    )
    return FlowStatistics(
        arrival_rate=float(workload.arrival_rate),
        mean_size=float(np.mean(wire)),
        mean_square_size_over_duration=mix(
            np.mean(wire**2 / tcp_durations),
            np.mean(wire**2 / udp_durations),
        ),
        mean_duration=mix(np.mean(tcp_durations), np.mean(udp_durations)),
    )


def superpose_link_moments(
    topology: Topology,
    demands,
    *,
    routing: RoutingStrategy | None = None,
) -> dict[tuple[str, str], LinkMoments]:
    """Per-link moment sums for statistics-carrying demands.

    Every topology link gets an entry (zeros when nothing crosses it).
    A demand split over several paths contributes each link its split
    fraction times the demand's moments: thinning a Poisson population
    by ``f`` scales ``lambda`` — and hence both the mean
    ``lambda E[S]`` and the variance
    ``shape * lambda E[S^2/D]`` — by ``f``.
    """
    routing = routing if routing is not None else ShortestPathRouting()
    moments = {
        link: LinkMoments(
            link=link, capacity_bps=topology.capacity_bps(*link)
        )
        for link in topology.links
    }
    for demand in demands:
        statistics = getattr(demand, "statistics", None)
        if statistics is None:
            raise ParameterError(
                "analytic superposition needs demands carrying "
                "FlowStatistics (got no 'statistics' attribute on "
                f"{demand!r}); use the NetworkEngine for "
                "flow-population demands"
            )
        shape = float(getattr(demand, "shape_factor", 1.0))
        routed = routing.route(topology, demand.source, demand.sink)
        fractions: dict[tuple[str, str], float] = {}
        for path, weight in zip(routed.paths, routed.weights):
            if weight <= 0.0:
                continue
            for link in zip(path[:-1], path[1:]):
                fractions[link] = fractions.get(link, 0.0) + float(weight)
        for link, fraction in fractions.items():
            entry = moments[link]
            entry.mean_rate += fraction * statistics.mean_rate
            entry.variance += fraction * statistics.variance(shape)
            entry.arrival_rate += fraction * statistics.arrival_rate
            entry.n_demands += 1
    return moments
