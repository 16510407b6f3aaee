"""Topology-wide flow simulation — the backbone as one object.

The single-link engines (generation, measurement, synthesis) reproduce
the paper on one monitored link; this package drives **every** link of a
backbone at once:

* :class:`Topology` — capacity/weight-annotated router graph, with
  presets (:func:`abilene`, :func:`parallel_paths`, :func:`line`);
* :class:`NetworkDemand` / :class:`DemandMatrix` — origin-destination
  flow populations (each a :class:`~repro.netsim.LinkWorkload`);
* routing strategies — :class:`ShortestPathRouting`,
  :class:`ECMPRouting` (deterministic per-flow hashing),
  :class:`StaticRouting` (weighted splits);
* events — :class:`LinkOutage` (mid-trace failure with reroute),
  :class:`FlashCrowd` (demand intensity scaling);
* :class:`NetworkEngine` — synthesises each demand once, window by
  window, and streams each link's superposed packet population into
  the measurement engine in bounded memory, producing a per-link model, utilisation, provisioning verdict and
  (optionally) anomaly events — serialized as a :class:`NetworkReport`;
* :func:`superpose_link_moments` — the analytic moment-sum path
  (sections VI-A/VII-A): :class:`AnalyticDemand` edge statistics plus
  routing give every link's mean, variance and required capacity.

Quickstart::

    from repro.network import DemandMatrix, NetworkDemand, NetworkEngine, abilene
    from repro.netsim import table_i_workload

    topo = abilene()
    demands = DemandMatrix(
        NetworkDemand(a, b, table_i_workload(row, duration=60.0))
        for (a, b), row in [
            (("seattle", "newyork"), 4), (("losangeles", "atlanta"), 2),
        ]
    )
    simulation = NetworkEngine(workers=4).simulate(topo, demands, seed=0)
    print(simulation.report().to_dict())
"""

from .analytic import (
    AnalyticDemand,
    LinkMoments,
    superpose_link_moments,
    workload_flow_statistics,
)
from .demands import DemandMatrix, NetworkDemand, demand_address_space
from .engine import (
    LinkSimulation,
    NetworkEngine,
    NetworkLinkReport,
    NetworkReport,
    NetworkRun,
    NetworkSimulation,
    SharedResults,
)
from .events import FlashCrowd, LinkOutage, RouteSegment, routing_timeline
from .routing import (
    ECMPRouting,
    RoutedPaths,
    RoutingStrategy,
    ShortestPathRouting,
    StaticRouting,
    ecmp_salt,
    flow_uniforms,
    path_indices,
    resolve_routing,
)
from .topology import Topology, abilene, line, parallel_paths

__all__ = [
    # topology
    "Topology",
    "abilene",
    "parallel_paths",
    "line",
    # demands
    "NetworkDemand",
    "DemandMatrix",
    "demand_address_space",
    # routing
    "RoutedPaths",
    "RoutingStrategy",
    "ShortestPathRouting",
    "ECMPRouting",
    "StaticRouting",
    "resolve_routing",
    "ecmp_salt",
    "flow_uniforms",
    "path_indices",
    # events
    "LinkOutage",
    "FlashCrowd",
    "RouteSegment",
    "routing_timeline",
    # engine
    "NetworkEngine",
    "NetworkRun",
    "SharedResults",
    "NetworkSimulation",
    "LinkSimulation",
    "NetworkReport",
    "NetworkLinkReport",
    # analytic
    "AnalyticDemand",
    "LinkMoments",
    "superpose_link_moments",
    "workload_flow_statistics",
]
