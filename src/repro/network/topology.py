"""Capacity-annotated backbone topologies.

A :class:`Topology` is the graph the network engine simulates: routers
(nodes) connected by directed links carrying a ``capacity_bps`` and an
IGP ``weight``.  Links are bidirectional by default — a physical fibre
is two directed links with shared fate (an outage takes out both
directions).

Presets cover the shapes the tests, registry scenarios and benchmarks
use:

* :func:`abilene` — the classic 11-PoP Abilene research backbone (14
  bidirectional fibres, 28 directed links), the standard topology of the
  traffic-matrix literature;
* :func:`parallel_paths` — ``k`` equal-cost two-hop paths between one
  ingress/egress pair, the minimal ECMP load-balancing testbed;
* :func:`line` — a chain of routers, the minimal multi-hop case (and,
  with two nodes, the single-link degeneracy the engine must reproduce
  bit for bit).
"""

from __future__ import annotations

from .._util import check_positive
from ..exceptions import ParameterError, TopologyError

__all__ = ["Topology", "abilene", "parallel_paths", "line"]


class Topology:
    """A backbone graph: routers plus capacity/weight-annotated links.

    The adjacency is a dict of dicts in router-insertion order:
    ``_adjacency[a][b]`` holds the ``capacity_bps`` and ``weight`` of the
    directed link ``a -> b``, and ``_predecessors[b][a]`` is the same
    dict, in the order the links into ``b`` were first declared.
    Re-declaring a link updates its data in place and keeps its
    position.

    A topology memoises what is derived from it: the reduced topologies
    of :meth:`without_links` (per expanded failed-link set) and each
    routing strategy's paths (per strategy type, source and sink, see
    :mod:`repro.network.routing`).  :meth:`add_router` and
    :meth:`add_link` clear both, so treat a memoised reduced topology as
    read-only.
    """

    def __init__(self) -> None:
        self._adjacency: dict[str, dict[str, dict[str, float]]] = {}
        self._predecessors: dict[str, dict[str, dict[str, float]]] = {}
        #: Physical fibres: maps each directed link to its reverse twin
        #: when the link was declared bidirectional (shared-fate outages).
        self._twins: dict[tuple[str, str], tuple[str, str]] = {}
        self._reduced: dict[frozenset, Topology] = {}
        self._routes: dict[tuple, object] = {}

    def __repr__(self) -> str:
        return f"Topology(routers={len(self._adjacency)}, links={self.n_links})"

    # -- construction ------------------------------------------------------

    def _changed(self) -> None:
        self._reduced.clear()
        self._routes.clear()

    def add_router(self, name: str) -> None:
        """Add a node (idempotent)."""
        self._put_router(str(name))
        self._changed()

    def _put_router(self, name: str) -> None:
        self._adjacency.setdefault(name, {})
        self._predecessors.setdefault(name, {})

    def _put_link(self, a: str, b: str, capacity_bps: float, weight: float):
        self._put_router(a)
        self._put_router(b)
        data = {"capacity_bps": capacity_bps, "weight": weight}
        self._adjacency[a][b] = self._predecessors[b][a] = data

    def add_link(
        self,
        a: str,
        b: str,
        *,
        capacity_bps: float,
        weight: float = 1.0,
        bidirectional: bool = True,
    ) -> None:
        """Add a link with capacity in bits/second and an IGP weight."""
        capacity_bps = check_positive("capacity_bps", capacity_bps)
        weight = check_positive("weight", weight)
        a, b = str(a), str(b)
        if a == b:
            raise TopologyError(f"link endpoints must differ, got {a!r}")
        self._put_link(a, b, capacity_bps, weight)
        if bidirectional:
            self._put_link(b, a, capacity_bps, weight)
            self._twins[(a, b)] = (b, a)
            self._twins[(b, a)] = (a, b)
        self._changed()

    # -- queries -----------------------------------------------------------

    @property
    def routers(self) -> list[str]:
        return list(self._adjacency)

    @property
    def links(self) -> list[tuple[str, str]]:
        """All directed links, node-major: every link out of the first
        router (in link-insertion order), then every link out of the
        second, and so on, routers in insertion order."""
        return [(a, b) for a, out in self._adjacency.items() for b in out]

    @property
    def n_links(self) -> int:
        return sum(len(out) for out in self._adjacency.values())

    def has_router(self, name: str) -> bool:
        return str(name) in self._adjacency

    def has_link(self, a: str, b: str) -> bool:
        return str(b) in self._adjacency.get(str(a), {})

    def successors(self, name: str) -> dict[str, dict[str, float]]:
        """The links out of ``name``: ``{b: {"capacity_bps", "weight"}}``
        in link-insertion order (read-only view; empty for an unknown
        router)."""
        return self._adjacency.get(str(name), {})

    def predecessors(self, name: str) -> dict[str, dict[str, float]]:
        """The links into ``name``: ``{a: {"capacity_bps", "weight"}}``
        in the order they were first declared (read-only view)."""
        return self._predecessors.get(str(name), {})

    def capacity_bps(self, a: str, b: str) -> float:
        self._require_link(a, b)
        return float(self._adjacency[str(a)][str(b)]["capacity_bps"])

    def weight(self, a: str, b: str) -> float:
        self._require_link(a, b)
        return float(self._adjacency[str(a)][str(b)]["weight"])

    def fate_group(self, a: str, b: str) -> tuple[tuple[str, str], ...]:
        """The directed links sharing the physical fibre of ``(a, b)``.

        An outage of a bidirectional fibre takes out both directions; a
        unidirectional link fails alone.
        """
        self._require_link(a, b)
        link = (str(a), str(b))
        twin = self._twins.get(link)
        return (link,) if twin is None else (link, twin)

    def without_links(self, failed) -> "Topology":
        """A copy of this topology with the given directed links removed.

        ``failed`` is an iterable of ``(a, b)`` pairs; each is expanded
        to its shared-fate group, so failing one direction of a
        bidirectional fibre fails both.  The copy is memoised per
        expanded set: every caller failing the same fibres gets the same
        (read-only) instance, with its routes memoised on it.
        """
        removed = frozenset(
            link for a, b in failed for link in self.fate_group(a, b)
        )
        reduced = self._reduced.get(removed)
        if reduced is None:
            reduced = Topology()
            for name in self._adjacency:
                reduced._put_router(name)
            for a, b in self.links:
                if (a, b) not in removed:
                    data = self._adjacency[a][b]
                    reduced._put_link(
                        a, b, data["capacity_bps"], data["weight"]
                    )
            reduced._twins = {
                link: twin
                for link, twin in self._twins.items()
                if link not in removed and twin not in removed
            }
            self._reduced[removed] = reduced
        return reduced

    def _require_link(self, a: str, b: str) -> None:
        if not self.has_link(a, b):
            raise TopologyError(f"no link {a!r} -> {b!r} in the topology")

    def require_router(self, name: str) -> None:
        if str(name) not in self._adjacency:
            raise TopologyError(f"unknown router {name!r}")

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe description (inverted exactly by :meth:`from_dict`).

        Bidirectional fibres are emitted once; unidirectional links carry
        ``"bidirectional": false``.
        """
        links = []
        seen: set[tuple[str, str]] = set()
        for a, b in self.links:
            if (a, b) in seen:
                continue
            data = self._adjacency[a][b]
            twin = self._twins.get((a, b))
            entry = {
                "a": a,
                "b": b,
                "capacity_bps": float(data["capacity_bps"]),
                "weight": float(data["weight"]),
            }
            if twin is None:
                entry["bidirectional"] = False
            else:
                seen.add(twin)
            links.append(entry)
            seen.add((a, b))
        return {"routers": self.routers, "links": links}

    @classmethod
    def from_dict(cls, data: dict) -> "Topology":
        topo = cls()
        for name in data.get("routers", ()):
            topo.add_router(name)
        for entry in data.get("links", ()):
            try:
                topo.add_link(
                    entry["a"],
                    entry["b"],
                    capacity_bps=entry["capacity_bps"],
                    weight=entry.get("weight", 1.0),
                    bidirectional=entry.get("bidirectional", True),
                )
            except KeyError as exc:
                raise ParameterError(
                    f"topology link entry {entry!r} is missing key {exc}"
                ) from None
        if not topo.n_links:
            raise ParameterError("topology must declare at least one link")
        return topo


# -- presets ---------------------------------------------------------------

#: The 14 Abilene fibres (11 PoPs).  All OC-48-class in the real network;
#: capacities here are parameters so scaled scenarios stay snappy.
_ABILENE_FIBRES: tuple[tuple[str, str], ...] = (
    ("seattle", "sunnyvale"),
    ("seattle", "denver"),
    ("sunnyvale", "losangeles"),
    ("sunnyvale", "denver"),
    ("losangeles", "houston"),
    ("denver", "kansascity"),
    ("kansascity", "houston"),
    ("kansascity", "indianapolis"),
    ("houston", "atlanta"),
    ("atlanta", "indianapolis"),
    ("atlanta", "washington"),
    ("indianapolis", "chicago"),
    ("chicago", "newyork"),
    ("washington", "newyork"),
)


def abilene(*, capacity_bps: float = 622e6 / 32.0) -> Topology:
    """The 11-PoP Abilene backbone (28 directed links, unit weights)."""
    topo = Topology()
    for a, b in _ABILENE_FIBRES:
        topo.add_link(a, b, capacity_bps=capacity_bps)
    return topo


def parallel_paths(
    k: int = 2, *, capacity_bps: float = 622e6 / 32.0
) -> Topology:
    """``k`` equal-cost two-hop paths ``src -> mid<i> -> dst`` (ECMP bed)."""
    k = int(k)
    if k < 1:
        raise ParameterError(f"parallel_paths needs k >= 1, got {k}")
    topo = Topology()
    for i in range(k):
        topo.add_link("src", f"mid{i}", capacity_bps=capacity_bps)
        topo.add_link(f"mid{i}", "dst", capacity_bps=capacity_bps)
    return topo


def line(n: int = 2, *, capacity_bps: float = 622e6 / 32.0) -> Topology:
    """A chain ``r0 - r1 - ... - r<n-1>`` (``n=2`` is the one-link case)."""
    n = int(n)
    if n < 2:
        raise ParameterError(f"line needs n >= 2 routers, got {n}")
    topo = Topology()
    for i in range(n - 1):
        topo.add_link(f"r{i}", f"r{i + 1}", capacity_bps=capacity_bps)
    return topo
