"""Pinned routes and link order of the preset and hand-built topologies.

``route_fixtures.json`` was recorded when ``Topology`` wrapped a
networkx ``DiGraph`` and the strategies called ``nx.shortest_path`` and
``nx.all_shortest_paths``; these tests hold the in-house adjacency and
Dijkstra to exactly those answers.  Each case stores its ``routers``,
``links`` and ``to_dict()``, and one ``[shortest_path, ecmp]`` row per
ordered router pair (sources in ``routers`` order, then sinks).  A path
is a space-separated string of router positions in ``routers``; ``null``
marks a pair with no route.

The cases: ``abilene()``, ``abilene()`` minus each of its 14 fibres,
``parallel_paths(3)``, ``line(4)`` with and without its middle fibre,
the weighted square of ``test_routing.py``, a square whose float
weights tie exactly on one side only (0.15 + 0.15 == 0.3, but
0.1 + 0.2 != 0.3), and a mix of unidirectional links, a re-declared
link and an isolated router.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.exceptions import TopologyError
from repro.network import (
    ECMPRouting,
    ShortestPathRouting,
    Topology,
    abilene,
    line,
    parallel_paths,
)

FIXTURES = json.loads(
    (Path(__file__).with_name("route_fixtures.json")).read_text()
)

#: The Abilene fibres in ``abilene().to_dict()`` order.
ABILENE_FIBRES = (
    ("seattle", "sunnyvale"),
    ("seattle", "denver"),
    ("sunnyvale", "losangeles"),
    ("sunnyvale", "denver"),
    ("denver", "kansascity"),
    ("losangeles", "houston"),
    ("houston", "kansascity"),
    ("houston", "atlanta"),
    ("kansascity", "indianapolis"),
    ("indianapolis", "atlanta"),
    ("indianapolis", "chicago"),
    ("atlanta", "washington"),
    ("washington", "newyork"),
    ("chicago", "newyork"),
)


def weighted_square() -> Topology:
    topo = Topology()
    topo.add_link("A", "B", capacity_bps=1e8)
    topo.add_link("B", "C", capacity_bps=1e8)
    topo.add_link("A", "D", capacity_bps=1e8, weight=10.0)
    topo.add_link("D", "C", capacity_bps=1e8, weight=10.0)
    return topo


def float_weights() -> Topology:
    topo = Topology()
    topo.add_link("A", "B", capacity_bps=1e8, weight=0.1)
    topo.add_link("B", "D", capacity_bps=1e8, weight=0.2)
    topo.add_link("A", "D", capacity_bps=1e8, weight=0.3)
    topo.add_link("A", "C", capacity_bps=1e8, weight=0.15)
    topo.add_link("C", "D", capacity_bps=1e8, weight=0.15)
    return topo


def mixed() -> Topology:
    topo = Topology()
    topo.add_router("lonely")
    topo.add_link("a", "b", capacity_bps=2e6, weight=3.0)
    topo.add_link("b", "c", capacity_bps=1e6, bidirectional=False)
    topo.add_link("c", "a", capacity_bps=1e6, weight=2.5)
    # re-declares b -> a in place: its data changes, its position not
    topo.add_link("b", "a", capacity_bps=5e6, weight=0.5, bidirectional=False)
    return topo


BUILDERS = {
    "abilene": abilene,
    **{
        f"abilene-{a}-{b}": (
            lambda a=a, b=b: abilene().without_links([(a, b)])
        )
        for a, b in ABILENE_FIBRES
    },
    "parallel_paths-3": lambda: parallel_paths(3),
    "line-4": lambda: line(4),
    "line-4-r1-r2": lambda: line(4).without_links([("r1", "r2")]),
    "weighted_square": weighted_square,
    "float_weights": float_weights,
    "mixed": mixed,
}


def test_every_case_is_pinned():
    assert list(BUILDERS) == list(FIXTURES)


def test_abilene_links_are_node_major():
    # all links out of one router, routers in insertion order: the
    # reverse twin ("sunnyvale", "seattle") comes before the fibre
    # declared second, read backwards ("denver", "seattle")
    assert abilene().links[:6] == [
        ("seattle", "sunnyvale"),
        ("seattle", "denver"),
        ("sunnyvale", "seattle"),
        ("sunnyvale", "losangeles"),
        ("sunnyvale", "denver"),
        ("denver", "seattle"),
    ]


@pytest.mark.parametrize("name", list(FIXTURES))
def test_structure(name):
    topo = BUILDERS[name]()
    fixture = FIXTURES[name]
    assert topo.routers == fixture["routers"]
    assert topo.links == [tuple(link) for link in fixture["links"]]
    assert topo.n_links == len(fixture["links"])
    assert topo.to_dict() == fixture["to_dict"]


@pytest.mark.parametrize("name", list(FIXTURES))
def test_routes(name):
    topo = BUILDERS[name]()
    fixture = FIXTURES[name]
    routers = fixture["routers"]

    def decode(path):
        return tuple(routers[int(i)] for i in path.split())

    pairs = [(s, t) for s in routers for t in routers if s != t]
    assert len(pairs) == len(fixture["routes"])
    for (source, sink), (shortest, ecmp) in zip(pairs, fixture["routes"]):
        if shortest is None:
            with pytest.raises(TopologyError, match="no route"):
                ShortestPathRouting().route(topo, source, sink)
        else:
            routed = ShortestPathRouting().route(topo, source, sink)
            assert routed.paths == (decode(shortest),), (source, sink)
        if ecmp is None:
            with pytest.raises(TopologyError, match="no route"):
                ECMPRouting().route(topo, source, sink)
        else:
            routed = ECMPRouting().route(topo, source, sink)
            assert routed.paths == tuple(map(decode, ecmp)), (source, sink)
            assert routed.weights == (1.0 / len(ecmp),) * len(ecmp)


@pytest.mark.parametrize("strategy", [ShortestPathRouting, ECMPRouting])
@pytest.mark.parametrize(
    "source, sink", [("seattle", "nowhere"), ("nowhere", "seattle")]
)
def test_unknown_router_raises(strategy, source, sink):
    with pytest.raises(TopologyError, match="no route"):
        strategy().route(abilene(), source, sink)


@pytest.mark.parametrize("strategy", [ShortestPathRouting, ECMPRouting])
def test_disconnected_pair_raises(strategy):
    topo = Topology()
    topo.add_link("X", "Y", capacity_bps=1e6, bidirectional=False)
    assert strategy().route(topo, "X", "Y").paths == (("X", "Y"),)
    with pytest.raises(TopologyError, match="no route"):
        strategy().route(topo, "Y", "X")
