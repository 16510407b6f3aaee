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

* **Per-link tasks.** Each simulated link re-synthesizes the demands
  crossing it from their own ``SeedSequence`` (demand ``i`` of a network
  seeded ``s`` draws from ``SeedSequence([s, i])``), filters each packet
  chunk by the flow-hash/route-segment rule, and k-way merges the
  filtered streams into one time-ordered stream feeding a streaming
  :class:`~repro.measurement.MeasurementEngine`.  Peak memory per link
  is bounded by one chunk per crossing demand plus the open-flow tables
  — never a trace.
* **Sharding.** Links are independent given the demand seeds, so the
  engine fans them out over a :func:`repro.execution.make_pool` worker
  pool (``workers`` × ``backend``); per-link synthesis/measurement stay
  single-worker so pools never nest (and :func:`make_pool` downgrades a
  nested ``process`` request to threads anyway).
* **Determinism.** Per-link outputs depend only on ``(seed, demands,
  topology, routing, events)`` — never on ``chunk`` or ``workers``.
  The merged packet order is canonical: sorted by timestamp with ties
  broken by demand index (then within-demand synthesis order), so the
  per-link trace, FlowSet and RateSeries are bitwise invariant to the
  execution knobs, and a one-demand one-link network reproduces
  :func:`~repro.netsim.link.synthesize_link_trace` +
  :class:`~repro.measurement.StreamingMeasurement` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._util import check_positive, check_probability
from ..applications.anomaly import AnomalyDetector, AnomalyEvent
from ..applications.dimensioning import provision_capacity
from ..checkpoint import CheckpointStore, map_in_batches, run_fingerprint
from ..core.model import PoissonShotNoiseModel
from ..core.shots import variance_shape_factor
from ..exceptions import ParameterError
from ..execution import check_backend, make_pool, stage_timer
from ..flows.records import FlowSet
from ..measurement.engine import MeasurementEngine
from ..stats.timeseries import RateSeries
from .demands import DemandMatrix
from .events import FlashCrowd, LinkOutage, apply_flash_crowds, routing_timeline
from .routing import ecmp_salt, flow_uniforms, resolve_routing
from .topology import Topology

__all__ = [
    "NetworkEngine",
    "LinkSimulation",
    "NetworkSimulation",
    "NetworkLinkReport",
    "NetworkReport",
]

#: Default packets per streamed block (matches the synthesis engine).
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


def _filter_chunks(stream, segment_intervals, salt):
    """Yield the packets of one demand stream that traverse one link."""
    # constant route fast path: no event ever moves this demand, so the
    # keep-rule is time-independent
    constant = len(segment_intervals) == 1
    if constant and _covers_unit_interval(segment_intervals[0][2]):
        # every flow crosses this link (single-path routes, or ECMP
        # paths that all share it): no per-packet hashing needed
        yield from stream
        return
    for block in stream:
        if not block.size:
            continue
        u = flow_uniforms(block, salt)
        keep = np.zeros(block.size, dtype=bool)
        ts = block["timestamp"]
        for t0, t1, intervals in segment_intervals:
            if not intervals:
                continue
            in_window = (
                None if constant else (ts >= t0) & (ts < t1)
            )
            for lo, hi in intervals:
                picked = (u >= lo) & (u < hi)
                if in_window is not None:
                    picked &= in_window
                keep |= picked
        if keep.all():
            yield block
        elif keep.any():
            yield block[keep]


def _merge_packet_streams(streams):
    """K-way merge of per-demand time-ordered chunk iterators.

    Canonical global order: timestamp, ties broken by stream (demand)
    index, then within-stream order — invariant to every stream's chunk
    boundaries.  Memory is bounded by one block per stream plus the
    boundary carry.
    """
    iterators = [iter(s) for s in streams]
    k = len(iterators)
    current: list[np.ndarray | None] = [None] * k
    exhausted = [False] * k

    def refill(i) -> None:
        while current[i] is None and not exhausted[i]:
            block = next(iterators[i], None)
            if block is None:
                exhausted[i] = True
            elif block.size:
                current[i] = block

    for i in range(k):
        refill(i)
    while True:
        active = [i for i in range(k) if current[i] is not None]
        if not active:
            return
        pending = [i for i in active if not exhausted[i]]
        t_safe = (
            min(float(current[i]["timestamp"][-1]) for i in pending)
            if pending
            else np.inf
        )
        parts = []
        for i in active:
            block = current[i]
            cut = (
                block.size
                if t_safe == np.inf
                else int(
                    np.searchsorted(block["timestamp"], t_safe, side="left")
                )
            )
            if cut:
                parts.append(block[:cut])
            current[i] = block[cut:] if cut < block.size else None
        # pull the bounding streams forward so t_safe strictly advances
        for i in pending:
            if (
                current[i] is None
                or float(current[i]["timestamp"][-1]) <= t_safe
            ):
                tail = current[i]
                current[i] = None
                refill(i)
                if tail is not None and tail.size:
                    current[i] = (
                        tail
                        if current[i] is None
                        else np.concatenate([tail, current[i]])
                    )
        if not parts:
            continue
        if len(parts) == 1:
            yield parts[0]
            continue
        merged = np.concatenate(parts)
        order = np.argsort(merged["timestamp"], kind="stable")
        yield merged[order]


class _LinkStream:
    """The merged, filtered packet stream of one link (single use).

    Mirrors the duck-type the measurement engine reads metadata from
    (``duration``/``link_capacity``), and optionally accumulates the
    materialised per-link trace for tests and exports.
    """

    def __init__(
        self, merged, *, duration, link_capacity, keep_packets=False
    ) -> None:
        self._merged = merged
        self.duration = float(duration)
        self.link_capacity = float(link_capacity)
        self.keep_packets = keep_packets
        self._blocks: list[np.ndarray] = []

    def __iter__(self):
        for block in self._merged:
            if self.keep_packets:
                self._blocks.append(block)
            yield block

    def packets(self) -> np.ndarray:
        from ..trace.packet import PACKET_DTYPE

        if not self._blocks:
            return np.zeros(0, dtype=PACKET_DTYPE)
        return (
            self._blocks[0]
            if len(self._blocks) == 1
            else np.concatenate(self._blocks)
        )


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


class NetworkEngine:
    """Whole-backbone flow simulation (see module docs).

    Parameters
    ----------
    chunk:
        Packets per streamed block inside each per-link pass (default
        :data:`DEFAULT_NETWORK_CHUNK`).  Execution strategy only: per-link
        results are bitwise invariant to it.
    workers:
        Links simulated concurrently on an execution-backend pool.
        Execution strategy only — never changes any result.
    backend:
        Pool flavour carrying the per-link tasks: ``"serial"``,
        ``"thread"`` (default) or ``"process"`` (shared-memory workers;
        per-link synthesis/measurement inside each task stay
        single-worker so pools never nest).
    retry:
        Optional :class:`~repro.execution.RetryPolicy` arming the
        process backend's watchdog: a per-link task whose worker
        crashes or hangs is deterministically re-executed.  Execution
        strategy only — never changes any result.
    """

    def __init__(
        self,
        *,
        chunk: int | None = None,
        workers: int = 1,
        backend: str = "thread",
        retry=None,
    ) -> None:
        if chunk is not None:
            if int(chunk) != chunk or int(chunk) < 1:
                raise ParameterError(
                    f"network chunk must be an integer >= 1 packet, "
                    f"got {chunk!r}"
                )
            chunk = int(chunk)
        if int(workers) != workers or int(workers) < 1:
            raise ParameterError(
                f"workers must be an integer >= 1, got {workers!r}"
            )
        self.chunk = chunk
        self.workers = int(workers)
        self.backend = check_backend("backend", backend)
        self.retry = retry

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NetworkEngine(chunk={self.chunk}, workers={self.workers}, "
            f"backend={self.backend!r})"
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
        for the JSON-safe artifact.

        ``checkpoint_dir`` persists each completed link's simulation
        durably (atomic write + manifest, see :mod:`repro.checkpoint`);
        ``resume=True`` then loads finished links and simulates only
        the remainder — bitwise-equal to an uninterrupted run, because
        every link task is seeded independently.
        """
        if resume and checkpoint_dir is None:
            raise ParameterError(
                "resume=True needs a checkpoint_dir to resume from"
            )
        if not isinstance(topology, Topology):
            raise ParameterError(
                f"expected a Topology, got {type(topology).__name__}"
            )
        if not isinstance(demands, DemandMatrix):
            demands = DemandMatrix(demands)
        if not len(demands):
            raise ParameterError("the demand matrix must not be empty")
        demands.validate_endpoints(topology)
        routing = resolve_routing(routing)
        delta = check_positive("delta", delta)
        epsilon = check_probability("epsilon", epsilon)
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
            salt = ecmp_salt(seed)

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
            name=str(name),
            seed=int(seed),
            duration=duration,
            routing=routing.name,
            topology=topology,
        )
        simulation._n_demands = len(demands)
        measure_kwargs = dict(
            delta=delta,
            key=flow_kind,
            timeout=timeout,
            min_packets=int(min_packets),
            prefix_length=int(prefix_length),
        )
        detect_kwargs = dict(
            epsilon=epsilon,
            detect_anomalies=bool(detect_anomalies),
            threshold_sigma=threshold_sigma,
            min_run=int(min_run),
        )

        store = None
        if checkpoint_dir is not None:
            store = CheckpointStore(
                checkpoint_dir,
                run_fingerprint({
                    "name": str(name),
                    "seed": int(seed),
                    "duration": float(duration),
                    "routing": routing.name,
                    "links": [list(link) for link in topology.links],
                    "n_demands": len(demands),
                    "measure": measure_kwargs,
                    "detect": detect_kwargs,
                    "keep_packets": bool(keep_packets),
                }),
                resume=resume,
            )

        chunk = self.chunk or DEFAULT_NETWORK_CHUNK
        tasks = []
        task_keys = []
        restored = 0
        for position, link in enumerate(topology.links):
            indices = crossing[link]
            capacity = topology.capacity_bps(*link)
            if not indices:
                simulation.links[link] = LinkSimulation(
                    link=link,
                    capacity_bps=capacity,
                    n_demands=0,
                    delta=delta,
                    duration=duration,
                )
                continue
            key = f"link-{position:04d}"
            if store is not None and resume and store.has(key):
                simulation.links[link] = store.load(key)
                restored += 1
                continue
            # every link task rebuilds each crossing demand's SeedSequence
            # from scratch: spawn() mutates the sequence, so sharing one
            # instance across concurrent tasks would decohere the streams
            # — fresh, equal-valued children per (demand, link) keep one
            # demand's flows identical on every link of its path
            tasks.append((
                link,
                capacity,
                [demands[i] for i in indices],
                [demands[i].seed_sequence(int(seed), i) for i in indices],
                [_segment_intervals(timeline[i], link) for i in indices],
                salt,
                duration,
                chunk,
                measure_kwargs,
                detect_kwargs,
                keep_packets,
            ))
            task_keys.append(key)
        with stage_timer("network.links"), make_pool(
            self.backend, self.workers, retry=self.retry
        ) as pool:
            done = map_in_batches(pool, _simulate_link_task, tasks, store)
            for key, (task, result) in zip(task_keys, done):
                simulation.links[task[0]] = result
                if store is not None:
                    store.save(key, result)
        # restore topology order (empty links were inserted eagerly)
        simulation.links = {
            link: simulation.links[link] for link in topology.links
        }
        return simulation


# -- one link --------------------------------------------------------------


def _simulate_link_task(task) -> LinkSimulation:
    """Simulate one link from a picklable task tuple (worker entry)."""
    return _simulate_one_link(*task)


def _simulate_one_link(
    link,
    capacity_bps,
    link_demands,
    link_seeds,
    link_segments,
    salt,
    duration,
    chunk,
    measure_kwargs,
    detect_kwargs,
    keep_packets,
) -> LinkSimulation:
    streams = [
        _filter_chunks(
            demand.workload.synthesize_chunks(
                seed=child, chunk=chunk, workers=1
            ),
            segments,
            salt,
        )
        for demand, child, segments in zip(
            link_demands, link_seeds, link_segments
        )
    ]
    link_stream = _LinkStream(
        _merge_packet_streams(streams),
        duration=duration,
        link_capacity=capacity_bps,
        keep_packets=keep_packets,
    )
    engine = MeasurementEngine(chunk=chunk, workers=1)
    measured = engine.measure_chunks(
        link_stream,
        keep_raw_series=bool(detect_kwargs["detect_anomalies"]),
        **measure_kwargs,
    )
    result = LinkSimulation(
        link=link,
        capacity_bps=capacity_bps,
        n_demands=len(link_demands),
        packet_count=int(measured.packet_count),
        total_bytes=float(measured.total_bytes),
        flows=measured.flows,
        series=measured.series,
        raw_series=measured.raw_series,
        delta=float(measure_kwargs["delta"]),
        duration=duration,
    )
    if keep_packets:
        result.packets = link_stream.packets()
    flows = measured.flows
    if len(flows) and measured.series is not None:
        result.statistics = flows.statistics(duration)
        model = PoissonShotNoiseModel.from_flows(
            flows.sizes, flows.durations, duration
        )
        fit = model.fit_power(measured.series.variance)
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
