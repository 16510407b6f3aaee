#!/usr/bin/env python
"""Capacity planning with the flow model (paper section VII-A).

Three planning exercises an ISP runs with only NetFlow-style statistics:

* provisioning a single link for a target congestion probability;
* growth planning — traffic smooths as sqrt(lambda), so capacity does NOT
  need to scale linearly with demand;
* what-if studies — a new application with larger transfers, or congested
  access networks stretching flow durations;
* whole-backbone planning: measure flows at the edges, route demands over
  a router topology, and predict the mean/variance on every internal
  link without monitoring it.

Run:  python examples/capacity_planning.py
"""

from __future__ import annotations

import math

from repro.applications import (
    bandwidth_savings,
    provision_capacity,
    smoothing_curve,
    what_if,
)
from repro.experiments import SCALED_TIMEOUT
from repro.flows import export_five_tuple_flows
from repro.netsim import medium_utilization_link, table_i_workload
from repro.network import AnalyticDemand, Topology, superpose_link_moments


def measure_edge_statistics(seed: int):
    """One edge router's flow measurements (a synthetic interval)."""
    workload = medium_utilization_link(duration=120.0)
    trace = workload.synthesize(seed=seed).trace
    flows = export_five_tuple_flows(trace, timeout=SCALED_TIMEOUT)
    return flows.statistics(trace.duration)


def main() -> None:
    stats = measure_edge_statistics(seed=1)

    print("== single link provisioning ==")
    for epsilon in (0.05, 0.01, 0.001):
        report = provision_capacity(stats, epsilon, shape_factor=1.8)
        print(f"  P(congestion) <= {epsilon:6.3f}:  "
              f"{report.capacity_bps / 1e6:6.2f} Mbps "
              f"(headroom {report.headroom_ratio:.2f}x)")

    print("\n== growth planning: the smoothing law ==")
    print(f"  {'demand':>8s} {'mean Mbps':>10s} {'CoV':>7s} {'capacity/mean':>14s}")
    for point in smoothing_curve(stats, [1, 2, 4, 8, 16, 32], epsilon=0.01):
        print(f"  {point.arrival_factor:7.0f}x {8 * point.mean_rate / 1e6:10.2f} "
              f"{point.cov:7.1%} {point.capacity_per_mean:14.3f}")
    print(f"  capacity saved vs linear scaling at 16x: "
          f"{bandwidth_savings(stats, 16.0):.1%}")

    print("\n== what-if studies ==")
    scenarios = {
        "today": stats,
        "new app: 2x transfer sizes": what_if(stats, size_factor=2.0),
        "congested access: 3x durations": what_if(stats, duration_factor=3.0),
        "both + 50% more flows": what_if(
            stats, arrival_factor=1.5, size_factor=2.0, duration_factor=3.0
        ),
    }
    print(f"  {'scenario':>32s} {'mean Mbps':>10s} {'CoV':>7s} {'1% cap Mbps':>12s}")
    for name, scenario in scenarios.items():
        report = provision_capacity(scenario, 0.01, shape_factor=1.8)
        cov = report.std / report.mean_rate
        print(f"  {name:>32s} {8 * report.mean_rate / 1e6:10.2f} "
              f"{cov:7.1%} {report.capacity_bps / 1e6:12.2f}")

    print("\n== backbone-wide planning from edge measurements ==")
    topology = Topology()
    capacity = table_i_workload(0).link_capacity_bps  # a scaled OC-12
    topology.add_link("NYC", "CHI", capacity_bps=capacity)
    topology.add_link("CHI", "DAL", capacity_bps=capacity)
    topology.add_link("DAL", "SJC", capacity_bps=capacity)
    topology.add_link("NYC", "SJC", capacity_bps=capacity, weight=5.0)

    demands = [
        AnalyticDemand(src, dst, measure_edge_statistics(seed=10 + i))
        for i, (src, dst) in enumerate(
            [("NYC", "SJC"), ("NYC", "DAL"), ("CHI", "SJC"), ("CHI", "DAL")]
        )
    ]

    print(f"  {'link':>12s} {'demands':>8s} {'util':>7s} {'CoV':>7s} "
          f"{'needed Mbps':>12s} {'ok?':>4s}")
    for (a, b), link in superpose_link_moments(topology, demands).items():
        if link.n_demands == 0:
            continue
        required = link.required_capacity_bps(0.01)
        utilization = 8.0 * link.mean_rate / link.capacity_bps
        cov = math.sqrt(link.variance) / link.mean_rate
        status = "OVER" if required > link.capacity_bps else "OK"
        print(f"  {a + '->' + b:>12s} {link.n_demands:8d} "
              f"{utilization:7.1%} {cov:7.1%} "
              f"{required / 1e6:12.2f} {status:>4s}")


if __name__ == "__main__":
    main()
