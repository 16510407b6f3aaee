"""Demand routing strategies and deterministic per-flow path hashing.

A strategy maps one origin-destination pair to a :class:`RoutedPaths`: a
set of loop-free paths with split weights.  Flows are pinned to paths the
way a router's ECMP hash does it: a deterministic 64-bit mix of the flow
five-tuple (plus a seed-derived salt) yields a uniform in ``[0, 1)``,
and the cumulative split weights partition that interval — so a flow's
packets all take the same path, the assignment is a pure function of
``(five-tuple, salt)``, and two runs with the same seed balance flows
identically no matter how the packets are chunked or which worker
evaluates them.

Strategies:

* :class:`ShortestPathRouting` — single IGP shortest path (``weight``
  attribute), the classic OSPF/IS-IS single-path case;
* :class:`ECMPRouting` — all equal-cost shortest paths with equal
  splits, flows pinned by hash (the load-balancing testbed setup);
* :class:`StaticRouting` — explicit per-OD paths with arbitrary split
  weights (traffic-engineered tunnels).
"""

from __future__ import annotations

import heapq
import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..exceptions import ParameterError, TopologyError
from .topology import Topology

__all__ = [
    "RoutedPaths",
    "RoutingStrategy",
    "ShortestPathRouting",
    "ECMPRouting",
    "StaticRouting",
    "resolve_routing",
    "ecmp_salt",
    "flow_uniforms",
    "path_indices",
]


@dataclass(frozen=True)
class RoutedPaths:
    """The paths (node sequences) and split weights of one routed demand."""

    paths: tuple[tuple[str, ...], ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.paths:
            raise ParameterError("a routed demand needs at least one path")
        if len(self.paths) != len(self.weights):
            raise ParameterError("paths and weights must pair up")
        total = float(sum(self.weights))
        if total <= 0.0 or any(w < 0.0 for w in self.weights):
            raise ParameterError("split weights must be >= 0 with a positive sum")
        object.__setattr__(
            self,
            "paths",
            tuple(tuple(str(n) for n in path) for path in self.paths),
        )
        object.__setattr__(
            self, "weights", tuple(float(w) / total for w in self.weights)
        )
        for path in self.paths:
            if len(path) < 2:
                raise ParameterError(f"path {path!r} has no links")
            if len(set(path)) != len(path):
                raise ParameterError(f"path {path!r} has a loop")

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    def links(self) -> set[tuple[str, str]]:
        """All directed links any of the paths crosses."""
        out: set[tuple[str, str]] = set()
        for path in self.paths:
            out.update(zip(path[:-1], path[1:]))
        return out

    def boundaries(self) -> np.ndarray:
        """Interior cumulative-weight cut points (``n_paths - 1`` values).

        A flow with hash uniform ``u`` takes path
        ``searchsorted(boundaries, u, side="right")``.
        """
        return np.cumsum(np.asarray(self.weights, dtype=np.float64))[:-1]

    def intervals_for_link(
        self, link: tuple[str, str]
    ) -> tuple[tuple[float, float], ...]:
        """Hash-uniform intervals ``[lo, hi)`` whose flows cross ``link``."""
        edges = np.concatenate(
            ([0.0], np.cumsum(np.asarray(self.weights, dtype=np.float64)))
        )
        edges[-1] = 1.0  # guard rounding: the last bucket must close [0, 1)
        out = []
        for j, path in enumerate(self.paths):
            if link in set(zip(path[:-1], path[1:])) and self.weights[j] > 0.0:
                out.append((float(edges[j]), float(edges[j + 1])))
        return tuple(out)


class RoutingStrategy(ABC):
    """Maps (topology, source, sink) to a :class:`RoutedPaths`."""

    #: Spec-facing identifier (``network.routing`` in scenario specs).
    name: str = ""

    @abstractmethod
    def route(
        self, topology: Topology, source: str, sink: str
    ) -> RoutedPaths: ...


def _no_route(source: str, sink: str) -> TopologyError:
    return TopologyError(f"no route from {source!r} to {sink!r}")


def _equal_cost_preds(topology: Topology, source: str) -> dict:
    """Single-source Dijkstra over the link ``weight``s.

    Maps every router reachable from ``source`` to the list of its
    predecessors on equal-cost shortest paths (exact float ties, found
    in networkx's ``all_shortest_paths`` order: heap entries
    ``(dist, counter, node)``, neighbours relaxed in adjacency order).
    An unknown ``source`` reaches nothing.
    """
    if not topology.has_router(source):
        return {}
    done: dict[str, float] = {}
    seen = {source: 0.0}
    preds: dict[str, list[str]] = {source: []}
    counter = itertools.count()
    heap = [(0.0, next(counter), source)]
    while heap:
        dist, _, v = heapq.heappop(heap)
        if v in done:
            continue
        done[v] = dist
        for u, data in topology.successors(v).items():
            through = dist + data["weight"]
            if u in done:
                if through == done[u]:
                    preds[u].append(v)
            elif u not in seen or through < seen[u]:
                seen[u] = through
                heapq.heappush(heap, (through, next(counter), u))
                preds[u] = [v]
            elif through == seen[u]:
                preds[u].append(v)
    return preds


def _all_paths(preds, source: str, node: str) -> list[tuple[str, ...]]:
    """Every equal-cost shortest path from ``source`` to ``node``."""
    if node == source:
        return [(source,)]
    return [
        path + (node,)
        for pred in preds[node]
        for path in _all_paths(preds, source, pred)
    ]


def _bidirectional_path(topology: Topology, source: str, sink: str):
    """The one shortest path networkx's ``shortest_path`` picks, or None.

    For a single pair networkx runs a bidirectional Dijkstra, and its
    tie-break is reproduced here: the forward (successor) and backward
    (predecessor) searches alternate one heap pop each, heap entries are
    ``(dist, counter, node)`` with one counter for both, neighbours are
    relaxed in adjacency order, a node's parent changes only on a strict
    improvement, and the meeting node changes only when it strictly
    shortens the best total.  The search ends when a node is settled
    from both sides.
    """
    if not (topology.has_router(source) and topology.has_router(sink)):
        return None
    if source == sink:
        return (source,)
    neighbours = (topology.successors, topology.predecessors)
    done: tuple[dict, dict] = ({}, {})
    seen = ({source: 0.0}, {sink: 0.0})
    parent = ({source: None}, {sink: None})
    counter = itertools.count()
    fringe = ([(0.0, next(counter), source)], [(0.0, next(counter), sink)])
    best = meet = None
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, v = heapq.heappop(fringe[direction])
        if v in done[direction]:
            continue
        done[direction][v] = dist
        if v in done[1 - direction]:
            forward, backward = [], []
            node = meet
            while node is not None:
                forward.append(node)
                node = parent[0][node]
            node = parent[1][meet]
            while node is not None:
                backward.append(node)
                node = parent[1][node]
            return tuple(reversed(forward)) + tuple(backward)
        for w, data in neighbours[direction](v).items():
            through = dist + data["weight"]
            if w in done[direction]:
                continue
            if w not in seen[direction] or through < seen[direction][w]:
                seen[direction][w] = through
                heapq.heappush(fringe[direction], (through, next(counter), w))
                parent[direction][w] = v
                if w in seen[1 - direction]:
                    total = through + seen[1 - direction][w]
                    if best is None or total < best:
                        best, meet = total, w
    return None


class _MemoisedRouting(RoutingStrategy):
    """A strategy computed from the topology alone, memoised on it.

    Routes are memoised per (strategy type, source, sink), unroutable
    pairs included; mutating the topology clears them.
    """

    def route(self, topology: Topology, source: str, sink: str) -> RoutedPaths:
        key = (type(self), str(source), str(sink))
        if key not in topology._routes:
            topology._routes[key] = self._compute(topology, key[1], key[2])
        routed = topology._routes[key]
        if routed is None:
            raise _no_route(source, sink)
        return routed

    @abstractmethod
    def _compute(
        self, topology: Topology, source: str, sink: str
    ) -> RoutedPaths | None: ...


class ShortestPathRouting(_MemoisedRouting):
    """Single IGP shortest path by the ``weight`` link attribute."""

    name = "shortest_path"

    def _compute(self, topology, source, sink):
        path = _bidirectional_path(topology, source, sink)
        if path is None:
            return None
        return RoutedPaths(paths=(path,), weights=(1.0,))


class ECMPRouting(_MemoisedRouting):
    """All equal-cost shortest paths, flows split equally by hash.

    Paths are sorted lexicographically so the path order — and therefore
    the hash-bucket assignment — is deterministic regardless of graph
    iteration order.
    """

    name = "ecmp"

    def _compute(self, topology, source, sink):
        preds = _equal_cost_preds(topology, source)
        if sink not in preds:
            return None
        paths = sorted(_all_paths(preds, source, sink))
        return RoutedPaths(paths=tuple(paths), weights=(1.0,) * len(paths))


class StaticRouting(RoutingStrategy):
    """Explicit weighted splits per OD pair (traffic-engineered routes).

    ``routes`` maps ``(source, sink)`` to a :class:`RoutedPaths` (or to a
    ``(paths, weights)`` pair).  Every path is validated against the
    topology at routing time, so a stale tunnel fails loudly.
    """

    name = "static"

    def __init__(self, routes: dict) -> None:
        self.routes: dict[tuple[str, str], RoutedPaths] = {}
        for od, value in routes.items():
            source, sink = (str(od[0]), str(od[1]))
            if not isinstance(value, RoutedPaths):
                paths, weights = value
                value = RoutedPaths(
                    paths=tuple(tuple(p) for p in paths),
                    weights=tuple(weights),
                )
            self.routes[(source, sink)] = value

    def route(self, topology: Topology, source: str, sink: str) -> RoutedPaths:
        od = (str(source), str(sink))
        if od not in self.routes:
            raise TopologyError(
                f"static routing has no entry for {source!r} -> {sink!r}"
            )
        routed = self.routes[od]
        for path in routed.paths:
            if path[0] != od[0] or path[-1] != od[1]:
                raise TopologyError(
                    f"static path {path!r} does not join {source!r} to {sink!r}"
                )
            for a, b in zip(path[:-1], path[1:]):
                if not topology.has_link(a, b):
                    raise TopologyError(
                        f"static path {path!r} uses missing link {a!r}->{b!r}"
                    )
        return routed


#: Spec-facing routing names (static routes carry data, so they are
#: constructed in code, not named in specs).
_NAMED_STRATEGIES = {
    ShortestPathRouting.name: ShortestPathRouting,
    ECMPRouting.name: ECMPRouting,
}


def resolve_routing(routing) -> RoutingStrategy:
    """A :class:`RoutingStrategy` from an instance or a spec name."""
    if isinstance(routing, RoutingStrategy):
        return routing
    name = str(routing)
    if name not in _NAMED_STRATEGIES:
        choices = ", ".join(sorted(_NAMED_STRATEGIES))
        raise ParameterError(
            f"unknown routing strategy {routing!r}; named strategies are "
            f"{choices} (use a StaticRouting instance for explicit paths)"
        )
    return _NAMED_STRATEGIES[name]()


# -- per-flow hashing ------------------------------------------------------

_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MIX2 = np.uint64(0x94D049BB133111EB)


def ecmp_salt(seed) -> np.uint64:
    """The network-wide hash salt derived from the simulation seed.

    One salt per network (like a router vendor's hash seed): the flow →
    path assignment is a pure function of ``(five-tuple, salt)``, pinned
    by tests for a fixed seed.
    """
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    # a dedicated child so the salt never collides with synthesis streams
    child = np.random.SeedSequence(
        entropy=root.entropy, spawn_key=(0xEC4B,)
    )
    return np.uint64(child.generate_state(1, np.uint64)[0])


def flow_uniforms(packets: np.ndarray, salt: np.uint64) -> np.ndarray:
    """Deterministic per-packet uniforms from the flow five-tuple.

    All packets of a flow share the five-tuple, hence the uniform, hence
    the path — the ECMP flow-pinning property.  SplitMix64 finalizer over
    the two packed key words, salted.
    """
    from ..flows.keys import pack_packet_keys

    hi, lo = pack_packet_keys(packets, "five_tuple")
    with np.errstate(over="ignore"):
        x = hi + np.uint64(salt)
        x ^= x >> np.uint64(30)
        x *= _SM64_MIX1
        x += lo * _SM64_GAMMA
        x ^= x >> np.uint64(27)
        x *= _SM64_MIX2
        x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)).astype(np.float64) * 2.0**-53


def path_indices(uniforms: np.ndarray, routed: RoutedPaths) -> np.ndarray:
    """Path index per packet given hash uniforms and split weights."""
    if routed.n_paths == 1:
        return np.zeros(np.asarray(uniforms).shape, dtype=np.int64)
    return np.searchsorted(
        routed.boundaries(), uniforms, side="right"
    ).astype(np.int64)
