"""Topology-wide flow simulation: route a demand matrix, drive every link.

The :class:`NetworkEngine` closes the paper's section VI-VII loop at the
network level: each origin-destination demand is a Poisson flow
population (a :class:`~repro.netsim.LinkWorkload`), the routing strategy
pins each flow to a path via the deterministic ECMP hash, and every link
carries the superposition of the flow populations routed over it —
Poisson superposition is exactly the model's multi-class extension, so
the per-link traffic is again shot noise and the whole single-link
pipeline (streamed synthesis → streamed measurement → fit → provision →
detect) applies link by link.

Execution model:

* **Time-major loop.**  Each demand is synthesised once per run: demand
  ``i`` of a network seeded ``s`` opens one
  :class:`~repro.synthesis.StreamingSynthesis` stream from
  ``SeedSequence([s, i])`` (or from its own pinned seed), and all
  demands advance one window of arrival cells at a time.  A demand's window block goes, through the
  flow-hash/route-segment rule, to every link on its route, so every
  hop sees the same flows.
* **One measurement per class, not per hop.**  A *class* is one demand
  under one keep rule (:func:`_keep_rule`); the links that keep the
  same packets of a demand share its class, and each class feeds one
  :class:`~repro.measurement.StreamingMeasurement` with no merging.
  A class holds its routed window blocks until they fill one
  measurement step of ``chunk`` packets, so its open-flow carry table
  is stepped once per ``chunk`` packets, not once per window.  Flow
  accounting is key-local and demands draw from disjoint destination
  blocks, so after the last window a link's FlowSet is the union of its
  classes' flows (each class's flows are put in the exporter's order
  once, when it is sealed; a link of several classes sorts by key
  alone) and its series, packet, byte and discard counts are sums of
  integer float64 values, exact in any order.  Where the blocks of a
  link's demands can share a flow key
  (:func:`~repro.network.demands.destination_keys_overlap`), the link's
  demands form one class instead, merged per window as one stream.
  Each link is then fitted and provisioned.  Peak memory is one window
  per demand plus, per class, fewer than ``chunk`` held packets and its
  open-flow carry table — never a trace.
* **Fan-out.**  One :func:`repro.execution.make_pool` pool
  (``workers`` × ``backend``) carries every task: the realisation ×
  cell synthesis tasks of a window, one measurement step per class with
  a full step held, and the per-link fits.  A window spans ``workers``
  cells.  Tasks are leaf functions, so pools never nest.
* **Many runs, one pass.**  :meth:`NetworkEngine.simulate_many` runs
  several scenarios of one duration (a capacity sweep's cells) in one
  loop, and :meth:`NetworkEngine.simulate` is its one-run case.  A
  *realisation* is one demand's workload under one seed sequence; runs
  that share it (common random numbers) share its synthesis, and a
  class is keyed by realisations and keep rules, so it is measured once
  for every link of every run that keeps its packets.  Links with the
  same tuple of classes share one finished FlowSet, series, fit and
  provisioning result, read-only; each keeps its own link, capacity and
  demand count.
* **Determinism.**  Per-link outputs depend only on ``(seed, demands,
  topology, routing, events)`` — never on ``chunk``, ``workers``,
  ``backend`` or on the other runs of a pass.  The seed fixes the ECMP
  salt, and each demand's synthesis seed (its own pinned ``seed``, or
  ``SeedSequence([seed, i])``).  A link's merged packet order is
  canonical: sorted by timestamp with ties broken by demand index (then
  within-demand synthesis order).  Its FlowSet and RateSeries equal one
  :class:`~repro.measurement.StreamingMeasurement` over that merged
  trace bit for bit, so they are bitwise invariant to the execution
  knobs, and a one-demand one-link network reproduces
  :meth:`~repro.synthesis.SynthesisEngine.synthesize` +
  :class:`~repro.measurement.StreamingMeasurement` bit for bit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .._util import check_positive, check_probability
from ..applications.anomaly import AnomalyDetector, AnomalyEvent
from ..applications.dimensioning import provision_capacity
from ..checkpoint import CheckpointStore, run_fingerprint
from ..core.model import PoissonShotNoiseModel
from ..core.shots import variance_shape_factor
from ..exceptions import ParameterError
from ..execution import ExecutionSpec, RetryPolicy, make_pool, stage_timer
from ..flows.records import FlowSet
from ..measurement.streaming import StreamingMeasurement, process_shard
from ..synthesis.engine import synthesize_cell_task
from ..trace.packet import concatenate_packets
from ..stats.timeseries import RateSeries
from .demands import DemandMatrix, destination_keys_overlap
from .events import FlashCrowd, LinkOutage, apply_flash_crowds, routing_timeline
from .routing import ecmp_salt, flow_uniforms, resolve_routing
from .topology import Topology

__all__ = [
    "NetworkEngine",
    "NetworkRun",
    "SharedResults",
    "LinkSimulation",
    "NetworkSimulation",
    "NetworkLinkReport",
    "NetworkReport",
]

#: Default packets of one per-class measurement step.
DEFAULT_NETWORK_CHUNK = 1_000_000


# -- per-link packet plumbing ----------------------------------------------


def _segment_intervals(segments, link):
    """Per segment: the hash-uniform intervals of ``link`` (maybe empty).

    Adjacent segments with equal intervals are coalesced — an outage
    elsewhere in the topology splits every demand's timeline at its
    breakpoints, but a demand whose share of *this* link never changes
    collapses back to one segment (restoring the no-hash fast path for
    unaffected single-path demands).
    """
    out = []
    for segment in segments:
        intervals = (
            ()
            if segment.routed is None
            else segment.routed.intervals_for_link(link)
        )
        if out and out[-1][2] == intervals and out[-1][1] == segment.t0:
            out[-1] = (out[-1][0], segment.t1, intervals)
        else:
            out.append((segment.t0, segment.t1, intervals))
    return out


def _covers_unit_interval(intervals) -> bool:
    """True when the hash intervals union to all of ``[0, 1)``."""
    reach = 0.0
    for lo, hi in sorted(intervals):
        if lo > reach:
            return False
        reach = max(reach, hi)
    return reach >= 1.0


def _keep_rule(segments, link):
    """How one demand's packets are kept on one link.

    ``None`` keeps every packet: no event ever moves the demand's share
    of this link, and its hash intervals cover all of ``[0, 1)``
    (single-path routes, or ECMP paths that all share the link), so no
    per-packet hashing is needed.  Otherwise the per-segment intervals
    :func:`_filter_block` applies.
    """
    intervals = _segment_intervals(segments, link)
    if len(intervals) == 1 and _covers_unit_interval(intervals[0][2]):
        return None
    return tuple(intervals)


def _filter_block(block, uniforms, segment_intervals):
    """The packets of one demand block that traverse one link.

    ``uniforms`` are the block's :func:`flow_uniforms`, computed once per
    block and shared by every link the demand can cross.
    """
    constant = len(segment_intervals) == 1
    keep = np.zeros(block.size, dtype=bool)
    ts = block["timestamp"]
    for t0, t1, intervals in segment_intervals:
        if not intervals:
            continue
        in_window = None if constant else (ts >= t0) & (ts < t1)
        for lo, hi in intervals:
            picked = (uniforms >= lo) & (uniforms < hi)
            if in_window is not None:
                picked &= in_window
            keep |= picked
    # np.compress copies whole records; boolean indexing of the packed
    # packet dtype copies field by field, several times slower
    return block if keep.all() else np.compress(keep, block)


def _merge_window(parts):
    """Merge one window's per-demand blocks into one stream.

    ``parts`` come in demand-index order, and each is time-ordered.
    Every demand emits exactly the packets before one shared window
    floor (all demands share the duration, hence the cell grid), so a
    window merges with no carry into the next.  A stable timestamp sort
    gives the canonical order: timestamp, then demand index, then
    position within the demand.
    """
    if len(parts) == 1:
        return parts[0]
    merged = concatenate_packets(parts)
    return np.take(merged, np.argsort(merged["timestamp"], kind="stable"))


# -- results ---------------------------------------------------------------


@dataclass
class LinkSimulation:
    """Everything the engine measured on one link."""

    link: tuple[str, str]
    capacity_bps: float
    n_demands: int
    packet_count: int = 0
    total_bytes: float = 0.0
    flows: FlowSet | None = None
    series: RateSeries | None = None
    raw_series: RateSeries | None = None
    model: PoissonShotNoiseModel | None = None
    fitted: PoissonShotNoiseModel | None = None
    fitted_power: float = float("nan")
    statistics: object | None = None  # FlowStatistics
    required_capacity_bps: float = 0.0
    anomalies: tuple[AnomalyEvent, ...] = ()
    delta: float = 0.2
    duration: float = 0.0
    packets: np.ndarray | None = None  # only with keep_packets=True

    @property
    def mean_rate_bps(self) -> float:
        if self.duration <= 0.0:
            return 0.0
        return 8.0 * self.total_bytes / self.duration

    @property
    def utilization(self) -> float:
        if not self.capacity_bps:
            return 0.0
        return self.mean_rate_bps / self.capacity_bps

    @property
    def measured_cov(self) -> float:
        if self.series is None or self.series.mean == 0.0:
            return float("nan")
        return float(self.series.coefficient_of_variation)

    @property
    def overloaded(self) -> bool:
        return self.required_capacity_bps > self.capacity_bps

    def report(self) -> "NetworkLinkReport":
        return NetworkLinkReport(
            link=self.link,
            capacity_bps=float(self.capacity_bps),
            n_demands=int(self.n_demands),
            packets=int(self.packet_count),
            mean_rate_bps=float(self.mean_rate_bps),
            utilization=float(self.utilization),
            measured_cov=float(self.measured_cov),
            fitted_power=float(self.fitted_power),
            fitted_cov=(
                float(self.fitted.coefficient_of_variation)
                if self.fitted is not None
                else float("nan")
            ),
            arrival_rate=(
                float(self.statistics.arrival_rate)
                if self.statistics is not None
                else 0.0
            ),
            required_capacity_bps=float(self.required_capacity_bps),
            overloaded=bool(self.overloaded),
            anomalies=tuple(
                {
                    "kind": event.kind,
                    "start_s": float(event.start_time(self.delta)),
                    "duration_s": float(event.n_samples * self.delta),
                    "peak_z": float(event.peak_z),
                }
                for event in self.anomalies
            ),
        )


@dataclass(frozen=True)
class NetworkLinkReport:
    """JSON-safe per-link entry of a :class:`NetworkReport`."""

    link: tuple[str, str]
    capacity_bps: float
    n_demands: int
    packets: int
    mean_rate_bps: float
    utilization: float
    measured_cov: float
    fitted_power: float
    fitted_cov: float
    arrival_rate: float
    required_capacity_bps: float
    overloaded: bool
    anomalies: tuple[dict, ...] = ()

    def to_dict(self) -> dict:
        out = {
            "link": list(self.link),
            "capacity_bps": self.capacity_bps,
            "n_demands": self.n_demands,
            "packets": self.packets,
            "mean_rate_bps": self.mean_rate_bps,
            "utilization": self.utilization,
            "measured_cov": (
                None if np.isnan(self.measured_cov) else self.measured_cov
            ),
            "fitted_power": (
                None if np.isnan(self.fitted_power) else self.fitted_power
            ),
            "fitted_cov": (
                None if np.isnan(self.fitted_cov) else self.fitted_cov
            ),
            "arrival_rate": self.arrival_rate,
            "required_capacity_bps": self.required_capacity_bps,
            "overloaded": self.overloaded,
        }
        if self.anomalies:
            out["anomalies"] = [dict(a) for a in self.anomalies]
        return out


@dataclass(frozen=True)
class NetworkReport:
    """The network run's final artifact (what ``repro network`` writes)."""

    name: str
    seed: int
    duration: float
    routing: str
    n_routers: int
    n_links: int
    n_demands: int
    links: tuple[NetworkLinkReport, ...]

    @property
    def overloaded_links(self) -> tuple[NetworkLinkReport, ...]:
        return tuple(entry for entry in self.links if entry.overloaded)

    @property
    def anomalous_links(self) -> tuple[NetworkLinkReport, ...]:
        return tuple(entry for entry in self.links if entry.anomalies)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": int(self.seed),
            "duration_s": float(self.duration),
            "routing": self.routing,
            "topology": {
                "routers": int(self.n_routers),
                "links": int(self.n_links),
            },
            "n_demands": int(self.n_demands),
            "overloaded_links": [
                list(entry.link) for entry in self.overloaded_links
            ],
            "anomalous_links": [
                list(entry.link) for entry in self.anomalous_links
            ],
            "links": [entry.to_dict() for entry in self.links],
        }


@dataclass
class NetworkSimulation:
    """Per-link results plus the aggregate report."""

    name: str
    seed: int
    duration: float
    routing: str
    topology: Topology
    links: dict[tuple[str, str], LinkSimulation] = field(default_factory=dict)

    def __getitem__(self, link: tuple[str, str]) -> LinkSimulation:
        return self.links[(str(link[0]), str(link[1]))]

    @property
    def simulated_links(self) -> list[LinkSimulation]:
        """Links that carried traffic, in topology order."""
        return [s for s in self.links.values() if s.n_demands > 0]

    def report(self) -> NetworkReport:
        return NetworkReport(
            name=self.name,
            seed=int(self.seed),
            duration=float(self.duration),
            routing=self.routing,
            n_routers=len(self.topology.routers),
            n_links=self.topology.n_links,
            n_demands=int(self._n_demands),
            links=tuple(s.report() for s in self.links.values()),
        )

    _n_demands: int = 0


# -- the engine ------------------------------------------------------------


@dataclass(frozen=True)
class NetworkRun:
    """One network scenario of a :meth:`NetworkEngine.simulate_many` pass.

    The arguments of :meth:`NetworkEngine.simulate` that may differ from
    one scenario to the next; the measurement and detection knobs belong
    to the pass.
    """

    topology: Topology
    demands: object  # a DemandMatrix, or NetworkDemand entries
    routing: object = "ecmp"
    events: tuple = ()
    seed: int = 0
    name: str = "network"


class SharedResults:
    """Realisations, sealed class measurements and finished links, by key.

    A *realisation* is what fixes one demand's synthesised packets: its
    workload (tiled, flash crowds applied) and its seed sequence; runs
    whose demands agree on both share it, under one integer id.
    ``classes`` maps a class (a tuple of ``(realisation, keep rule)``
    pairs) to its sealed :class:`~repro.measurement.StreamingMeasurement`,
    and ``links`` maps a link's tuple of classes to its finished
    :class:`LinkSimulation`, which every link of that tuple shares
    read-only.  Each is a pure function of its key under one set of
    measurement and detection knobs, so one instance may serve several
    :meth:`NetworkEngine.simulate_many` passes with the same knobs: a
    pass measures and finishes only what is not here yet.
    """

    def __init__(self) -> None:
        self.classes: dict = {}
        self.links: dict = {}
        self._realisations: dict = {}  # seed entropy -> [(workload, id)]
        self._count = 0
        self._knobs = None

    def bind(self, knobs) -> None:
        """Pin the knobs the results were measured under."""
        if self._knobs is None:
            self._knobs = knobs
        elif self._knobs != knobs:
            raise ParameterError(
                "these shared results were measured under other "
                "measurement or detection knobs"
            )

    def realisation(self, demand, seed: int, index: int) -> int:
        """The realisation id of demand ``index`` of a run seeded ``seed``."""
        entropy = (
            ("seed", int(demand.seed))
            if demand.seed is not None
            else ("position", int(seed), int(index))
        )
        known = self._realisations.setdefault(entropy, [])
        for workload, rid in known:
            if workload == demand.workload:
                return rid
        known.append((demand.workload, self._count))
        self._count += 1
        return self._count - 1


def _knobs(
    *,
    delta: float = 0.2,
    flow_kind: str = "five_tuple",
    timeout: float = 8.0,
    min_packets: int = 2,
    prefix_length: int = 24,
    epsilon: float = 0.01,
    detect_anomalies: bool = False,
    threshold_sigma: float = 3.0,
    min_run: int = 3,
):
    """``(measure_kwargs, detect_kwargs)`` of one engine pass, checked."""
    measure_kwargs = dict(
        delta=check_positive("delta", delta),
        key=flow_kind,
        timeout=timeout,
        min_packets=int(min_packets),
        prefix_length=int(prefix_length),
    )
    detect_kwargs = dict(
        epsilon=check_probability("epsilon", epsilon),
        detect_anomalies=bool(detect_anomalies),
        threshold_sigma=threshold_sigma,
        min_run=int(min_run),
    )
    return measure_kwargs, detect_kwargs


class NetworkEngine:
    """Whole-backbone flow simulation (see module docs).

    Parameters
    ----------
    chunk:
        Packets per measurement step on one class (default
        :data:`DEFAULT_NETWORK_CHUNK`).  Each class holds its routed
        window blocks until they reach ``chunk`` packets, measures them
        in ``chunk``-packet steps and holds the remainder; the last
        window measures what is left.  It bounds the packets a class
        holds, and sets how often its open-flow table is stepped.
        Execution strategy only: per-link results are bitwise invariant
        to it.
    workers:
        Lanes of the one execution-backend pool, and the number of
        arrival cells per window.  The pool runs the demand × cell
        synthesis tasks, one measurement step per class, and the
        per-link fits.  Execution strategy only — never changes any
        result.
    backend:
        Pool flavour: ``"serial"``, ``"thread"`` (default) or
        ``"process"`` (shared-memory workers).  Pool tasks never open
        pools of their own, so pools never nest.
    retry:
        Optional :class:`~repro.execution.RetryPolicy` arming the
        process backend's watchdog: a task whose worker crashes or
        hangs is deterministically re-executed.  Execution strategy
        only — never changes any result.

    The four are checked and kept as one
    :class:`~repro.execution.ExecutionSpec`, ``engine.execution``.
    """

    def __init__(
        self,
        *,
        chunk: int | None = None,
        workers: int = 1,
        backend: str = "thread",
        retry: RetryPolicy | None = None,
    ) -> None:
        self.execution = ExecutionSpec(chunk, workers, backend, retry)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        c = self.execution
        return (
            f"NetworkEngine(chunk={c.chunk}, workers={c.workers}, "
            f"backend={c.backend!r})"
        )

    def simulate(
        self,
        topology: Topology,
        demands,
        *,
        routing="ecmp",
        events=(),
        seed: int = 0,
        name: str = "network",
        delta: float = 0.2,
        flow_kind: str = "five_tuple",
        timeout: float = 8.0,
        min_packets: int = 2,
        prefix_length: int = 24,
        epsilon: float = 0.01,
        detect_anomalies: bool = False,
        threshold_sigma: float = 3.0,
        min_run: int = 3,
        keep_packets: bool = False,
        checkpoint_dir=None,
        resume: bool = False,
    ) -> NetworkSimulation:
        """Simulate every link of the topology under the demand matrix.

        ``events`` mixes :class:`~repro.network.events.LinkOutage` and
        :class:`~repro.network.events.FlashCrowd` entries.  Returns a
        :class:`NetworkSimulation`; call :meth:`NetworkSimulation.report`
        for the JSON-safe artifact.  This is the one-run case of
        :meth:`simulate_many`.

        ``checkpoint_dir`` persists each completed link's simulation
        durably (atomic write + manifest, see :mod:`repro.checkpoint`);
        ``resume=True`` then loads finished links and measures only the
        remainder — bitwise-equal to an uninterrupted run, because every
        demand is seeded independently.  Links are checkpointed once
        every link is measured and fitted, so a run interrupted before
        that resumes from the start.  The fingerprint covers the
        demands (endpoints, workloads, seeds), the events, each link's
        capacity and weight, the routing strategy's name and the
        measurement knobs, so a checkpoint of a run that differs in any
        of them fails loudly.
        """
        if resume and checkpoint_dir is None:
            raise ParameterError(
                "resume=True needs a checkpoint_dir to resume from"
            )
        measure_kwargs, detect_kwargs = _knobs(
            delta=delta,
            flow_kind=flow_kind,
            timeout=timeout,
            min_packets=min_packets,
            prefix_length=prefix_length,
            epsilon=epsilon,
            detect_anomalies=detect_anomalies,
            threshold_sigma=threshold_sigma,
            min_run=min_run,
        )
        run = NetworkRun(
            topology, demands, routing=routing, events=tuple(events),
            seed=seed, name=name,
        )
        plan = _plan(
            run,
            measure_kwargs,
            detect_kwargs,
            keep_packets=bool(keep_packets),
            checkpoint_dir=checkpoint_dir,
            resume=resume,
        )
        (simulation,) = self._run(
            [plan], measure_kwargs, detect_kwargs, SharedResults(),
            keep_packets=bool(keep_packets),
        )
        return simulation

    def simulate_many(
        self, runs, *, shared: SharedResults | None = None, **knobs
    ) -> list[NetworkSimulation]:
        """Simulate several network runs in one pass; one result per run.

        ``runs`` are :class:`NetworkRun` entries of one duration, and
        ``knobs`` are :meth:`simulate`'s measurement and detection
        arguments (``delta`` … ``min_run``), common to every run.  Each
        run's result is bitwise equal to its own :meth:`simulate` call,
        but the work is shared: a *realisation* (one demand's workload
        under one synthesis seed) is synthesised once for every run that
        has it, a class is measured once for every link of every run
        that keeps its packets, and links of one tuple of classes share
        one finished :class:`LinkSimulation`'s FlowSet, series, fit and
        provisioning result.  ``shared`` carries measured classes and
        finished links into later passes with the same knobs.
        """
        measure_kwargs, detect_kwargs = _knobs(**knobs)
        plans = [
            _plan(run, measure_kwargs, detect_kwargs) for run in runs
        ]
        return self._run(
            plans,
            measure_kwargs,
            detect_kwargs,
            shared if shared is not None else SharedResults(),
        )

    def _run(
        self, plans, measure_kwargs, detect_kwargs, shared, *,
        keep_packets=False,
    ) -> list[NetworkSimulation]:
        """Measure and finish every pending link of ``plans`` (one pass)."""
        durations = sorted({plan.simulation.duration for plan in plans})
        if len(durations) > 1:
            raise ParameterError(
                f"the runs of one pass must share one duration; got "
                f"{durations}"
            )
        shared.bind((measure_kwargs, detect_kwargs))
        sources, targets = _link_classes(plans, measure_kwargs, shared)
        pending = [(plan, key, link) for plan in plans
                   for key, link in plan.pending]
        c = self.execution
        with stage_timer("network.links"), make_pool(
            c.backend, c.workers, retry=c.retry
        ) as pool:
            kept = _measure_links(
                pool,
                targets,
                sources,
                shared.classes,
                window=c.workers,
                chunk=c.chunk or DEFAULT_NETWORK_CHUNK,
                duration=durations[0] if durations else 0.0,
                measure_kwargs=measure_kwargs,
                keep_raw_series=bool(detect_kwargs["detect_anomalies"]),
                keep_packets=keep_packets,
            )
            todo = {}  # tuple of classes -> the task finishing it
            for (plan, _, link), classes in zip(pending, targets):
                if classes not in shared.links and classes not in todo:
                    todo[classes] = (
                        link,
                        plan.simulation.topology.capacity_bps(*link),
                        len(plan.crossing[link]),
                        [shared.classes[group] for group in classes],
                        plan.simulation.duration,
                        detect_kwargs,
                    )
            done = _map_lanes(pool, _finish_link_task, list(todo.values()))
            for classes, result in zip(todo, done):
                shared.links[classes] = _read_only(result)
        for (plan, key, link), classes, blocks in zip(pending, targets, kept):
            result = dataclasses.replace(
                shared.links[classes],
                link=link,
                capacity_bps=plan.simulation.topology.capacity_bps(*link),
                n_demands=len(plan.crossing[link]),
            )
            if keep_packets:
                packets = concatenate_packets(blocks)
                # a lone window block may be another link's too: own it
                result.packets = packets.copy() if len(blocks) == 1 else packets
            plan.simulation.links[link] = result
            if plan.store is not None:
                plan.store.save(key, result)
        for plan in plans:
            # restore topology order (empty links were inserted eagerly)
            topology = plan.simulation.topology
            plan.simulation.links = {
                link: plan.simulation.links[link] for link in topology.links
            }
        return [plan.simulation for plan in plans]


# -- planning one run --------------------------------------------------------


@dataclass
class _Plan:
    """One run, routed: its result so far and the links left to measure."""

    simulation: NetworkSimulation
    demands: DemandMatrix  # tiled, flash crowds applied
    timeline: list  # per demand: its route segments
    crossing: dict  # link -> the demands that can ever cross it
    salt: object
    pending: list  # (checkpoint key, link) of the links to measure
    store: CheckpointStore | None = None


def _plan(
    run, measure_kwargs, detect_kwargs, *, keep_packets=False,
    checkpoint_dir=None, resume=False,
) -> _Plan:
    """Check and route one run; restore its checkpointed links."""
    topology = run.topology
    demands = run.demands
    if not isinstance(topology, Topology):
        raise ParameterError(
            f"expected a Topology, got {type(topology).__name__}"
        )
    if not isinstance(demands, DemandMatrix):
        demands = DemandMatrix(demands)
    declared = demands
    if not len(demands):
        raise ParameterError("the demand matrix must not be empty")
    demands.validate_endpoints(topology)
    routing = resolve_routing(run.routing)
    events = run.events
    outages = [e for e in events if isinstance(e, LinkOutage)]
    crowds = [e for e in events if isinstance(e, FlashCrowd)]
    stray = [
        e for e in events
        if not isinstance(e, (LinkOutage, FlashCrowd))
    ]
    if stray:
        raise ParameterError(
            f"unknown network event type {type(stray[0]).__name__}"
        )
    duration = demands.duration
    # disjoint per-demand destination blocks (tile offset zero for
    # demand 0, preserving the single-link degeneracy bit for bit)
    demands = demands.with_tiled_addresses()
    with stage_timer("network.routing"):
        timeline = routing_timeline(
            topology, demands, routing, outages, duration=duration
        )
        demands = apply_flash_crowds(demands, crowds)
        salt = ecmp_salt(run.seed)

        # which demands can ever cross each link (any segment)
        crossing: dict[tuple[str, str], list[int]] = {
            link: [] for link in topology.links
        }
        for index, segments in enumerate(timeline):
            touched: set[tuple[str, str]] = set()
            for segment in segments:
                if segment.routed is not None:
                    touched.update(segment.routed.links())
            for link in touched:
                crossing[link].append(index)

    simulation = NetworkSimulation(
        name=str(run.name),
        seed=int(run.seed),
        duration=duration,
        routing=routing.name,
        topology=topology,
    )
    simulation._n_demands = len(demands)

    store = None
    if checkpoint_dir is not None:
        store = CheckpointStore(
            checkpoint_dir,
            run_fingerprint({
                "name": str(run.name),
                "seed": int(run.seed),
                "duration": float(duration),
                "routing": routing.name,
                "links": [
                    [
                        *link,
                        topology.capacity_bps(*link),
                        topology.weight(*link),
                    ]
                    for link in topology.links
                ],
                "demands": [
                    [d.source, d.sink, d.seed, d.workload]
                    for d in declared
                ],
                "events": list(events),
                "measure": measure_kwargs,
                "detect": detect_kwargs,
                "keep_packets": bool(keep_packets),
            }),
            resume=resume,
        )

    pending = []
    for position, link in enumerate(topology.links):
        if not crossing[link]:
            simulation.links[link] = LinkSimulation(
                link=link,
                capacity_bps=topology.capacity_bps(*link),
                n_demands=0,
                delta=measure_kwargs["delta"],
                duration=duration,
            )
            continue
        key = f"link-{position:04d}"
        if store is not None and resume and store.has(key):
            simulation.links[link] = store.load(key)
            continue
        pending.append((key, link))
    return _Plan(
        simulation=simulation,
        demands=demands,
        timeline=timeline,
        crossing=crossing,
        salt=salt,
        pending=pending,
        store=store,
    )


def _link_classes(plans, measure_kwargs, shared):
    """Per realisation its source, and per pending link its classes.

    A class is a tuple of ``(realisation, keep rule)`` pairs: one pair,
    shared by every link of every run that keeps the same packets of the
    realisation, or all of a link's pairs when their flow keys can
    collide.  A rule that hashes flows carries the run's ECMP salt.
    Returns ``(sources, targets)``: ``sources`` maps each realisation id
    (:meth:`SharedResults.realisation`) to a ``(demand, run seed, demand
    index)`` that synthesises it, and ``targets`` lists, per pending link
    of every plan in order, its tuple of classes.
    """
    sources = {}
    targets = []
    for plan in plans:
        seed = plan.simulation.seed
        realisations = []
        for index, demand in enumerate(plan.demands):
            realisation = shared.realisation(demand, seed, index)
            sources.setdefault(realisation, (demand, seed, index))
            realisations.append(realisation)
        for _, link in plan.pending:
            pairs = []
            for index in plan.crossing[link]:
                rule = _keep_rule(plan.timeline[index], link)
                pairs.append((
                    realisations[index],
                    None if rule is None else (plan.salt, rule),
                ))
            merged = destination_keys_overlap(
                [plan.demands[i].workload.address_space
                 for i in plan.crossing[link]],
                key=measure_kwargs["key"],
                prefix_length=measure_kwargs["prefix_length"],
            )
            targets.append(
                (tuple(pairs),) if merged
                else tuple((pair,) for pair in pairs)
            )
    return sources, targets


# -- the time-major loop ---------------------------------------------------


def _run_batch(batch):
    """Run one lane's batch of tasks (worker entry)."""
    fn, tasks = batch
    return [fn(task) for task in tasks]


def _map_lanes(pool, fn, tasks):
    """``pool.map_ordered(fn, tasks)`` with one pool item per lane.

    The engine's tasks take milliseconds each, so cutting them into at
    most ``pool.workers`` contiguous batches pays the pool's per-item
    cost (pickling, pipe round trip, shared-memory staging) once per
    lane instead of once per task.
    """
    size = max(1, -(-len(tasks) // pool.workers))
    batches = [(fn, tasks[i:i + size]) for i in range(0, len(tasks), size)]
    return [
        result
        for results in pool.map_ordered(_run_batch, batches)
        for result in results
    ]


def _measure_links(
    pool,
    targets,
    sources,
    measured,
    *,
    window,
    chunk,
    duration,
    measure_kwargs,
    keep_raw_series,
    keep_packets,
):
    """Synthesise each realisation once and stream it into its classes.

    ``targets`` lists per link its classes (:func:`_link_classes`).
    Classes already in ``measured`` are not measured again; the others
    hold their window blocks, are measured in ``chunk``-packet steps
    (:func:`_measure_window`) and are added to ``measured``, sealed.
    Only realisations feeding a class measured here are synthesised.
    Returns per link the merged packet blocks (kept only with
    ``keep_packets``, when every class is measured in this pass).
    """
    classes: dict[tuple, int] = {}  # class measured here -> slot
    for groups in targets:
        for group in groups:
            if group not in measured:
                classes.setdefault(group, len(classes))
    streamers = [
        StreamingMeasurement(
            duration=duration, keep_raw_series=keep_raw_series,
            **measure_kwargs,
        )
        for _ in classes
    ]
    kept = [[] for _ in targets]
    # per realisation: the distinct keep rules its classes need
    rules: dict = {}
    for group in classes:
        for realisation, rule in group:
            if rule not in rules.setdefault(realisation, []):
                rules[realisation].append(rule)
    routes = list(rules.items())
    streams = []
    for realisation, _ in routes:
        demand, seed, index = sources[realisation]
        streams.append(demand.workload.synthesize_chunks(
            seed=demand.seed_sequence(seed, index)
        ))
    # every run of a pass shares the duration, hence one cell grid
    n_cells = streams[0].plan.n_cells if streams else 0
    held = [[] for _ in classes]  # per class: routed blocks not yet measured
    for g0 in range(0, n_cells, window):
        g1 = min(g0 + window, n_cells)
        blocks = _route_window(pool, streams, routes, g0, g1, classes)
        if keep_packets:
            for slot, groups in enumerate(targets):
                parts = [
                    blocks[classes[group]]
                    for group in groups
                    if classes[group] in blocks
                ]
                if parts:
                    kept[slot].append(_merge_window(parts))
        for slot, block in blocks.items():
            held[slot].append(block)
        _measure_window(pool, streamers, held, chunk, last=g1 == n_cells)
    for group, streamer in zip(classes, streamers):
        streamer.seal()
        measured[group] = streamer
    return kept


def _route_window(pool, streams, routes, g0, g1, classes):
    """Synthesise cells ``g0 .. g1 - 1`` of every realisation; route them.

    Filters each realisation's block once per keep rule (hashing its
    flows once per ECMP salt) and returns each class's window block by
    class slot (classes the window leaves empty are absent).
    """
    with stage_timer("synthesis.cells"):
        blocks = _map_lanes(
            pool,
            synthesize_cell_task,
            [t for stream in streams for t in stream.window_tasks(g0, g1)],
        )
    width = g1 - g0
    filtered = {}  # (realisation, rule) -> its packets under the rule
    for j, (stream, (realisation, rules)) in enumerate(zip(streams, routes)):
        packets = stream.emit_window(blocks[j * width:(j + 1) * width], g1)
        if packets is None:
            continue
        uniforms = {}  # salt -> the block's flow uniforms
        for rule in rules:
            part = packets
            if rule is not None:
                salt, intervals = rule
                if salt not in uniforms:
                    uniforms[salt] = flow_uniforms(packets, salt)
                part = _filter_block(packets, uniforms[salt], intervals)
            if part.size:
                filtered[realisation, rule] = part
    out = {}
    for group, slot in classes.items():
        parts = [filtered[pair] for pair in group if pair in filtered]
        if parts:
            out[slot] = _merge_window(parts)
    return out


def _measure_window(pool, streamers, held, chunk, *, last):
    """Measure each class's held blocks in ``chunk``-packet steps.

    ``held`` lists, per class slot, the routed window blocks not yet
    measured; windows are consecutive in time, so their concatenation is
    time-ordered.  A class with ``chunk`` packets held measures every
    whole step of them and holds the remainder for later windows; after
    the ``last`` window each class measures all it holds.  One pool
    round runs one step for every class with a step left.
    """
    ready = {}  # class slot -> the packets it measures now
    for slot, blocks in enumerate(held):
        size = sum(block.size for block in blocks)
        if size and (last or size >= chunk):
            packets = concatenate_packets(blocks)
            cut = size if last else size - size % chunk
            # a copy, so the remainder does not pin the measured packets
            blocks[:] = [packets[cut:].copy()] if cut < size else []
            ready[slot] = packets[:cut]
    longest = max((packets.size for packets in ready.values()), default=0)
    for start in range(0, longest, chunk):
        owners, tasks = [], []
        with stage_timer("measurement.shards"):
            for slot, packets in ready.items():
                if start < packets.size:
                    owners.append(slot)
                    tasks.extend(streamers[slot].shard_tasks(
                        packets[start:start + chunk]
                    ))
            results = _map_lanes(pool, process_shard, tasks)
        for slot, result in zip(owners, results):
            streamers[slot].apply_shards([result])


# -- one link --------------------------------------------------------------


def _read_only(result: LinkSimulation) -> LinkSimulation:
    """Lock the arrays every link of one tuple of classes shares."""
    flows = result.flows
    arrays = [flows.starts, flows.ends, flows.sizes, flows.packet_counts,
              flows.keys]
    arrays += [
        s.values for s in (result.series, result.raw_series) if s is not None
    ]
    for array in arrays:
        array.flags.writeable = False
    return result


def _finish_link_task(task) -> LinkSimulation:
    """Finalise one link from a picklable task tuple (worker entry)."""
    return _finish_link(*task)


def _finish_link(
    link, capacity_bps, n_demands, classes, duration, detect_kwargs
) -> LinkSimulation:
    flows, series, raw_series = StreamingMeasurement.assemble(classes)
    result = LinkSimulation(
        link=link,
        capacity_bps=capacity_bps,
        n_demands=n_demands,
        packet_count=sum(int(part.packet_count) for part in classes),
        total_bytes=float(sum(part.total_bytes for part in classes)),
        flows=flows,
        series=series,
        raw_series=raw_series,
        delta=float(classes[0].delta),
        duration=duration,
    )
    if len(flows) and series is not None:
        result.statistics = flows.statistics(duration)
        model = PoissonShotNoiseModel.from_flows(
            flows.sizes, flows.durations, duration
        )
        fit = model.fit_power(series.variance)
        result.model = model
        result.fitted = model.with_shot(fit.shot)
        result.fitted_power = float(fit.power)
        provisioned = provision_capacity(
            result.statistics,
            detect_kwargs["epsilon"],
            shape_factor=variance_shape_factor(fit.power),
        )
        result.required_capacity_bps = float(provisioned.capacity_bps)
        if detect_kwargs["detect_anomalies"] and result.raw_series is not None:
            # rectangular-baseline Gaussian band, as in the pipeline's
            # Validate stage: the baseline variance comes from flow
            # statistics alone, so an anomaly cannot widen its own band
            detector = AnomalyDetector(
                model.gaussian(),
                threshold_sigma=detect_kwargs["threshold_sigma"],
                min_run=detect_kwargs["min_run"],
            )
            result.anomalies = tuple(detector.detect(result.raw_series))
    return result
