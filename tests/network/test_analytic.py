"""Tests for repro.network.analytic: edge statistics + routing = link moments."""

from __future__ import annotations

import math

import pytest

from repro.core import FlowStatistics
from repro.exceptions import ParameterError, TopologyError
from repro.network import (
    AnalyticDemand,
    ECMPRouting,
    Topology,
    parallel_paths,
    superpose_link_moments,
)


def stats(rate=50.0):
    return FlowStatistics(
        arrival_rate=rate,
        mean_size=1e4,
        mean_square_size_over_duration=5e7,
        mean_duration=2.0,
    )


@pytest.fixture()
def topology():
    topo = Topology()
    topo.add_link("A", "B", capacity_bps=100e6)
    topo.add_link("B", "C", capacity_bps=100e6)
    topo.add_link("A", "D", capacity_bps=100e6, weight=10.0)
    topo.add_link("D", "C", capacity_bps=100e6, weight=10.0)
    return topo


def loaded_links(topology, demands):
    moments = superpose_link_moments(topology, demands)
    return {link for link, entry in moments.items() if entry.n_demands}


def cov(entry):
    return math.sqrt(entry.variance) / entry.mean_rate


class TestRouting:
    def test_shortest_path_by_weight(self, topology):
        demands = [AnalyticDemand("A", "C", stats())]
        assert loaded_links(topology, demands) == {("A", "B"), ("B", "C")}

    def test_weight_changes_route(self, topology):
        demands = [AnalyticDemand("A", "C", stats())]
        # routed (and memoised) on the old weights first
        assert loaded_links(topology, demands) == {("A", "B"), ("B", "C")}
        # re-declaring the fibre updates both directions and the memo
        topology.add_link("A", "B", capacity_bps=100e6, weight=100.0)
        assert loaded_links(topology, demands) == {("A", "D"), ("D", "C")}

    def test_no_route_raises(self):
        topo = Topology()
        topo.add_router("X")
        topo.add_router("Y")
        with pytest.raises(TopologyError):
            superpose_link_moments(topo, [AnalyticDemand("X", "Y", stats())])

    def test_unknown_router_rejected(self, topology):
        with pytest.raises(TopologyError):
            superpose_link_moments(
                topology, [AnalyticDemand("A", "Z", stats())]
            )

    def test_ecmp_split_thins_each_path(self):
        moments = superpose_link_moments(
            parallel_paths(2, capacity_bps=100e6),
            [AnalyticDemand("src", "dst", stats(40.0))],
            routing=ECMPRouting(),
        )
        first_hops = [e for link, e in moments.items() if link[0] == "src"]
        assert [e.arrival_rate for e in first_hops] == pytest.approx(
            [20.0, 20.0]
        )


class TestLinkMoments:
    def test_superposition_adds(self, topology):
        moments = superpose_link_moments(
            topology,
            [AnalyticDemand("A", "C", stats(30.0)),
             AnalyticDemand("B", "C", stats(20.0))],
        )
        bc = moments[("B", "C")]
        assert bc.n_demands == 2
        assert bc.arrival_rate == pytest.approx(50.0)
        assert bc.mean_rate == pytest.approx(
            stats(30.0).mean_rate + stats(20.0).mean_rate
        )
        # variances add
        expected_var = stats(30.0).variance(1.8) + stats(20.0).variance(1.8)
        assert bc.variance == pytest.approx(expected_var)

    def test_unused_links_zero(self, topology):
        moments = superpose_link_moments(
            topology, [AnalyticDemand("A", "C", stats())]
        )
        dc = moments[("D", "C")]
        assert dc.n_demands == 0
        assert dc.mean_rate == 0.0
        assert dc.variance == 0.0
        assert dc.required_capacity_bps(0.01) == 0.0

    def test_overload_detection(self, topology):
        moments = superpose_link_moments(
            topology, [AnalyticDemand("A", "C", stats(2000.0))]
        )
        overloaded = {
            link
            for link, entry in moments.items()
            if entry.required_capacity_bps(0.01) > entry.capacity_bps
        }
        assert overloaded == {("A", "B"), ("B", "C")}

    def test_required_capacity_exceeds_mean(self, topology):
        moments = superpose_link_moments(
            topology, [AnalyticDemand("A", "C", stats(40.0))]
        )
        ab = moments[("A", "B")]
        assert ab.required_capacity_bps(0.01) > 8.0 * ab.mean_rate
        assert 0.0 < 8.0 * ab.mean_rate / ab.capacity_bps < 0.5
        assert cov(ab) > 0.0

    def test_cov_shrinks_with_aggregation(self, topology):
        """Two links, one carrying twice the demands: smoother traffic."""
        moments = superpose_link_moments(
            topology,
            [AnalyticDemand("A", "C", stats(50.0)),
             AnalyticDemand("B", "C", stats(50.0))],
        )
        assert cov(moments[("B", "C")]) < cov(moments[("A", "B")])


class TestAnalyticDemand:
    def test_self_demand_rejected(self):
        with pytest.raises(TopologyError):
            AnalyticDemand("A", "A", stats())

    def test_negative_shape_rejected(self):
        with pytest.raises(ParameterError):
            AnalyticDemand("A", "C", stats(), shape_factor=-1.0)

    def test_demand_without_statistics_rejected(self, topology):
        class Bare:
            source, sink = "A", "C"

        with pytest.raises(ParameterError, match="statistics"):
            superpose_link_moments(topology, [Bare()])
