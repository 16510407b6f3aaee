"""Routes and reduced topologies are memoised on their topology.

``Topology.without_links`` returns one instance per expanded failed-link
set, and each named strategy computes a (source, sink) route once per
topology instance; ``add_router``/``add_link`` clear both memos.  A full
``abilene-single-failure-2x`` sweep (45 cells: 15 topologies x 3 growth
factors, 6 demands) therefore computes each of its 90 distinct
(topology, source, sink) routes once, in the prefilter and the engine
together.
"""

from __future__ import annotations

import pytest

import repro.network.routing as routing_module
from repro.exceptions import TopologyError
from repro.network import (
    ECMPRouting,
    ShortestPathRouting,
    Topology,
    abilene,
    parallel_paths,
)
from repro.pipeline import default_registry, run_scenario


@pytest.fixture
def computed(monkeypatch):
    """Route computations (one search per route not yet memoised)."""
    counts = {"routes": 0}
    ecmp = routing_module._equal_cost_preds
    single = routing_module._bidirectional_path

    def counting_ecmp(*args):
        counts["routes"] += 1
        return ecmp(*args)

    def counting_single(*args):
        counts["routes"] += 1
        return single(*args)

    monkeypatch.setattr(routing_module, "_equal_cost_preds", counting_ecmp)
    monkeypatch.setattr(routing_module, "_bidirectional_path", counting_single)
    return counts


def test_without_links_is_memoised_per_expanded_set():
    topo = abilene()
    reduced = topo.without_links([("seattle", "denver")])
    # either direction names the same fibre
    assert topo.without_links([("denver", "seattle")]) is reduced
    assert topo.without_links(
        [("seattle", "denver"), ("denver", "seattle")]
    ) is reduced
    assert topo.without_links([("seattle", "sunnyvale")]) is not reduced
    topo.add_router("boise")
    assert topo.without_links([("seattle", "denver")]) is not reduced


@pytest.mark.parametrize("strategy", [ShortestPathRouting, ECMPRouting])
def test_each_route_is_computed_once(computed, strategy):
    topo = abilene()
    first = strategy().route(topo, "seattle", "newyork")
    assert strategy().route(topo, "seattle", "newyork") is first
    assert computed["routes"] == 1
    strategy().route(topo, "newyork", "seattle")
    strategy().route(abilene(), "seattle", "newyork")  # another instance
    assert computed["routes"] == 3


def test_strategies_do_not_share_routes(computed):
    topo = parallel_paths(2)
    assert ECMPRouting().route(topo, "src", "dst").n_paths == 2
    assert ShortestPathRouting().route(topo, "src", "dst").n_paths == 1
    assert computed["routes"] == 2


def test_unroutable_pairs_are_memoised(computed):
    topo = Topology()
    topo.add_link("X", "Y", capacity_bps=1e6, bidirectional=False)
    for _ in range(2):
        with pytest.raises(TopologyError, match="no route"):
            ECMPRouting().route(topo, "Y", "X")
    assert computed["routes"] == 1


@pytest.mark.parametrize("strategy", [ShortestPathRouting, ECMPRouting])
def test_add_link_clears_routes(computed, strategy):
    topo = Topology()
    topo.add_link("A", "B", capacity_bps=1e6)
    topo.add_link("B", "C", capacity_bps=1e6)
    topo.add_link("A", "D", capacity_bps=1e6, weight=10.0)
    topo.add_link("D", "C", capacity_bps=1e6, weight=10.0)
    assert strategy().route(topo, "A", "C").paths == (("A", "B", "C"),)
    topo.add_link("A", "B", capacity_bps=1e6, weight=100.0)
    assert strategy().route(topo, "A", "C").paths == (("A", "D", "C"),)
    topo.add_router("E")
    strategy().route(topo, "A", "C")
    assert computed["routes"] == 3


def test_full_sweep_computes_each_distinct_route_once(computed):
    result = run_scenario(default_registry().get("abilene-single-failure-2x"))
    report = result.sweep.result.report
    assert report.n_cells == 45 and report.n_simulated == 14
    # 6 demands on the intact topology and on each of 14 reduced ones
    assert computed["routes"] <= 90
