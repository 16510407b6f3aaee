"""Composable pipeline stages: synthesize → measure → fit → generate → validate.

Each stage is a small object with a ``name`` and a ``run(context)`` method
(the :class:`Stage` protocol).  Stages read and write a shared
:class:`PipelineContext` and return a typed result object; the default
stage chain reproduces the paper's section VI/VII loop exactly — the same
calls in the same order as the pre-pipeline CLI and harness, so Table I
presets produce bit-for-bit identical traces and statistics through the
new front door.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, runtime_checkable

import numpy as np

from .._util import as_rng
from ..calibration import (
    CalibrationReport,
    ClosedLoopReport,
    calibrate_flows,
    validate_fitted_spec,
)
from ..applications.anomaly import (
    AnomalyDetector,
    AnomalyEvent,
    inject_flood,
    inject_outage,
)
from ..core.fitting import PowerFit
from ..core.model import PoissonShotNoiseModel, SuperposedModel
from ..core.shots import PowerShot
from ..exceptions import ParameterError, ReproError
from ..execution import run_health
from ..flows.records import FlowSet
from ..generation.engine import GenerationEngine
from ..measurement.engine import MeasurementEngine
from ..netsim.workloads import LinkWorkload
from ..stats.estimators import replay_flow_statistics
from ..stats.qq import ExponentialityReport, exponentiality
from ..stats.timeseries import RateSeries
from ..trace.packet import PacketTrace
from .spec import ScenarioSpec

__all__ = [
    "Stage",
    "PipelineContext",
    "TraceMeta",
    "IngestResult",
    "SynthesisResult",
    "AccountingResult",
    "CalibrationResult",
    "EstimationResult",
    "FitResult",
    "GenerationResult",
    "NetworkStageResult",
    "SweepStageResult",
    "ValidationReport",
    "Synthesize",
    "ImportFlows",
    "AccountFlows",
    "Estimate",
    "Calibrate",
    "FitModel",
    "Generate",
    "SimulateNetwork",
    "RunSweep",
    "Validate",
]


@runtime_checkable
class Stage(Protocol):
    """One pipeline step: consumes/extends the context, returns a result."""

    name: str

    def run(self, context: "PipelineContext"): ...


@dataclass(frozen=True)
class TraceMeta:
    """Capture metadata that survives when the trace itself is streamed.

    Set by :class:`Synthesize` in every mode, so downstream stages read
    durations and capacities from one place whether the packets are an
    in-memory :class:`PacketTrace` or a single-use synthesis stream.
    """

    name: str
    duration: float
    link_capacity: float

    @classmethod
    def from_trace(cls, trace: PacketTrace) -> "TraceMeta":
        return cls(
            name=trace.name,
            duration=float(trace.duration),
            link_capacity=float(trace.link_capacity),
        )


@dataclass
class PipelineContext:
    """Mutable bag of artifacts shared by the stages of one scenario run.

    ``trace`` and ``stream`` are alternatives: a streamed synthesis
    (``spec.synthesis.chunk``/``workers``) sets ``stream`` — a
    :class:`~repro.synthesis.StreamingSynthesis` consumed exactly once
    by :class:`AccountFlows` — and leaves ``trace`` as ``None``; the
    classic path materialises ``trace``.  ``trace_meta`` is always set.
    """

    spec: ScenarioSpec
    trace: PacketTrace | None = None
    workload: LinkWorkload | None = None
    stream: "object | None" = None  # StreamingSynthesis
    trace_meta: TraceMeta | None = None
    checkpoint_dir: "object | None" = None  # sweep/network durable results
    resume: bool = False
    ingest: "IngestResult | None" = None
    synthesis: "SynthesisResult | None" = None
    accounting: "AccountingResult | None" = None
    estimation: "EstimationResult | None" = None
    calibration: "CalibrationResult | None" = None
    fit: "FitResult | None" = None
    generation: "GenerationResult | None" = None
    network: "NetworkStageResult | None" = None
    sweep: "SweepStageResult | None" = None
    validation: "ValidationReport | None" = None

    def require(self, attribute: str, needed_by: str):
        value = getattr(self, attribute)
        if value is None:
            raise ParameterError(
                f"stage {needed_by!r} needs {attribute!r}; run the producing "
                "stage first (or pass trace=... to run_scenario)"
            )
        return value

    def require_meta(self, needed_by: str) -> TraceMeta:
        """Trace metadata, derived from the trace for hand-wired contexts
        that skipped the :class:`Synthesize` stage."""
        if self.trace_meta is None and self.trace is not None:
            self.trace_meta = TraceMeta.from_trace(self.trace)
        return self.require("trace_meta", needed_by)


# -- typed stage results ----------------------------------------------------


@dataclass(frozen=True)
class IngestResult:
    """Output of :class:`ImportFlows`.

    ``stream`` is the live import stream consumed by
    :class:`AccountFlows`; its counters (records read, packets and bytes
    fed to the measurement engine) are complete once the accounting
    stage has drained it — :meth:`summary` reads them at call time, so a
    report rendered after the run sees final values.
    """

    path: str
    format: str
    order: str
    stream: "object"  # FlowPacketStream | PacketChunkStream
    meta: TraceMeta

    def summary(self) -> dict:
        stream = self.stream
        duration = float(self.meta.duration)
        octets = int(stream.bytes_emitted)
        mean_rate = (
            8.0 * octets / duration if duration > 0 and octets > 0 else None
        )
        capacity = float(self.meta.link_capacity)
        return {
            "path": self.path,
            "format": self.format,
            "order": self.order,
            "records": int(stream.records_read),
            "records_skipped": int(getattr(stream, "records_skipped", 0)),
            "packets": int(stream.packets_emitted),
            "duration_s": duration,
            "clock_offset_s": float(stream.base_offset),
            "mean_rate_bps": mean_rate,
            "utilization": (
                mean_rate / capacity
                if capacity > 0 and mean_rate is not None
                else None
            ),
        }


@dataclass(frozen=True)
class SynthesisResult:
    """Output of :class:`Synthesize`.

    ``trace`` is ``None`` when the workload streams straight into the
    measurement stage (``source="streamed"``); ``stream`` then carries
    the live packet/byte counters, which are complete once
    :class:`AccountFlows` has drained it — :meth:`summary` reads them
    at call time, so a report rendered after the run sees final values.
    """

    trace: PacketTrace | None
    workload: LinkWorkload | None
    source: str  # "synthesized", "streamed" or "provided"
    anomaly: str | None = None
    stream: "object | None" = None  # StreamingSynthesis
    meta: TraceMeta | None = None

    def summary(self) -> dict:
        if self.trace is not None:
            return {
                "name": self.trace.name,
                "source": self.source,
                "packets": int(len(self.trace)),
                "duration_s": float(self.trace.duration),
                "mean_rate_bps": float(self.trace.mean_rate_bps),
                "utilization": float(self.trace.utilization),
                "anomaly": self.anomaly,
            }
        duration = float(self.meta.duration)
        mean_rate = 8.0 * float(self.stream.total_bytes) / duration
        return {
            "name": self.meta.name,
            "source": self.source,
            "packets": int(self.stream.packet_count),
            "duration_s": duration,
            "mean_rate_bps": mean_rate,
            "utilization": mean_rate / float(self.meta.link_capacity),
            "anomaly": self.anomaly,
        }


@dataclass(frozen=True)
class AccountingResult:
    """Output of :class:`AccountFlows`.

    ``series`` is the single-packet-filtered rate series the measurement
    engine accumulated in the same pass as the flows, so the estimation
    stage need not touch the packets again.
    """

    flows: FlowSet
    series: RateSeries
    #: Pre-discard rate series — the raw link rate the anomaly detector
    #: watches — accumulated when the validation section detects
    #: anomalies.
    raw_series: RateSeries | None = None

    def summary(self) -> dict:
        return {
            "kind": self.flows.key_kind,
            "n_flows": int(len(self.flows)),
            "timeout_s": float(self.flows.timeout),
            "discarded_packets": int(self.flows.discarded_packets),
        }


@dataclass(frozen=True)
class EstimationResult:
    """Output of :class:`Estimate`: the measured series + the summary."""

    series: RateSeries
    statistics: "object"  # FlowStatistics
    online_statistics: "object | None" = None  # EWMA snapshot when requested

    def summary(self) -> dict:
        stats = self.statistics
        out = {
            "delta_s": float(self.series.delta),
            "n_samples": int(len(self.series)),
            "measured_mean_bps": float(self.series.mean * 8.0),
            "measured_cov": float(self.series.coefficient_of_variation),
            "arrival_rate": float(stats.arrival_rate),
            "mean_size_bytes": float(stats.mean_size),
            "mean_square_size_over_duration": float(
                stats.mean_square_size_over_duration
            ),
            "mean_duration_s": (
                float(stats.mean_duration)
                if np.isfinite(stats.mean_duration)
                else None
            ),
        }
        if self.online_statistics is not None:
            online = self.online_statistics
            out["ewma"] = {
                "arrival_rate": float(online.arrival_rate),
                "mean_size_bytes": float(online.mean_size),
                "mean_square_size_over_duration": float(
                    online.mean_square_size_over_duration
                ),
            }
        return out


@dataclass(frozen=True)
class FitResult:
    """Output of :class:`FitModel`."""

    model: PoissonShotNoiseModel
    power_fit: PowerFit
    fitted: PoissonShotNoiseModel
    model_cov: dict[float, float]
    superposed: SuperposedModel | None = None
    class_note: str | None = None

    def summary(self) -> dict:
        out = {
            "fitted_power": float(self.power_fit.power),
            "kappa": float(self.power_fit.kappa),
            "clipped": bool(self.power_fit.clipped),
            "model_mean_bps": float(self.model.mean * 8.0),
            "model_cov": {
                f"{power:g}": float(cov)
                for power, cov in self.model_cov.items()
            },
            "fitted_cov": float(self.fitted.coefficient_of_variation),
        }
        if self.superposed is not None:
            out["superposed"] = {
                "n_classes": len(self.superposed.components),
                "mean_bps": float(self.superposed.mean * 8.0),
                "cov": float(self.superposed.coefficient_of_variation),
            }
        if self.class_note:
            out["class_note"] = self.class_note
        return out


@dataclass(frozen=True)
class GenerationResult:
    """Output of :class:`Generate`: the model-driven rate path."""

    series: RateSeries
    seed: int
    chunk: float | None
    workers: int

    def summary(self) -> dict:
        return {
            "seed": int(self.seed),
            "chunk_s": None if self.chunk is None else float(self.chunk),
            "workers": int(self.workers),
            "n_samples": int(len(self.series)),
            "generated_mean_bps": float(self.series.mean * 8.0),
            "generated_cov": float(self.series.coefficient_of_variation),
        }


@dataclass(frozen=True)
class ValidationReport:
    """Measured-vs-model comparison: the pipeline's final artifact."""

    scenario: str
    seed: int
    measured_cov: float
    measured_mean_bps: float
    model_cov: dict[float, float]
    fitted_power: float
    fitted_cov: float
    relative_error: float
    cov_band: float
    within_band: bool
    required_capacity_bps: float
    epsilon: float
    autocorrelation_lags_s: tuple[float, ...] = ()
    autocorrelation_measured: tuple[float, ...] = ()
    autocorrelation_model: tuple[float, ...] = ()
    autocorrelation_rmse: float = float("nan")
    interarrivals: ExponentialityReport | None = None
    generated_cov: float | None = None
    generated_vs_measured_error: float | None = None
    superposed_cov: float | None = None
    anomalies: tuple[AnomalyEvent, ...] = ()
    anomaly_delta_s: float | None = None

    @property
    def passed(self) -> bool:
        """The paper's headline check: fitted CoV inside the ±band."""
        return self.within_band

    def to_dict(self) -> dict:
        """JSON-safe report (what ``python -m repro run --report`` writes)."""
        out = {
            "scenario": self.scenario,
            "seed": int(self.seed),
            "passed": bool(self.passed),
            "measured": {
                "cov": float(self.measured_cov),
                "mean_bps": float(self.measured_mean_bps),
            },
            "model": {
                "cov_by_power": {
                    f"{p:g}": float(c) for p, c in self.model_cov.items()
                },
                "fitted_power": float(self.fitted_power),
                "fitted_cov": float(self.fitted_cov),
            },
            "cov_relative_error": float(self.relative_error),
            "cov_band": float(self.cov_band),
            "within_band": bool(self.within_band),
            "provisioning": {
                "epsilon": float(self.epsilon),
                "required_capacity_bps": float(self.required_capacity_bps),
            },
            "autocorrelation": {
                "lags_s": [float(v) for v in self.autocorrelation_lags_s],
                "measured": [float(v) for v in self.autocorrelation_measured],
                "model": [float(v) for v in self.autocorrelation_model],
                "rmse": float(self.autocorrelation_rmse),
            },
        }
        if self.interarrivals is not None:
            out["interarrivals"] = {
                "ks_statistic": float(self.interarrivals.ks_statistic),
                "ks_pvalue": float(self.interarrivals.ks_pvalue),
                "ks_method": self.interarrivals.ks_method,
                "cov": float(self.interarrivals.cov),
                "qq_correlation": float(self.interarrivals.qq_correlation),
                "plausibly_exponential": bool(
                    self.interarrivals.plausibly_exponential
                ),
            }
        if self.generated_cov is not None:
            out["generation"] = {
                "cov": float(self.generated_cov),
                "vs_measured_error": float(self.generated_vs_measured_error),
            }
        if self.superposed_cov is not None:
            out["superposed_cov"] = float(self.superposed_cov)
        if self.anomaly_delta_s is not None:
            out["anomalies"] = [
                {
                    "kind": event.kind,
                    "start_s": float(event.start_time(self.anomaly_delta_s)),
                    "duration_s": float(event.n_samples * self.anomaly_delta_s),
                    "peak_z": float(event.peak_z),
                }
                for event in self.anomalies
            ]
        return out


# -- built-in stages --------------------------------------------------------


@dataclass(frozen=True)
class NetworkStageResult:
    """Output of :class:`SimulateNetwork`: per-link results + the report.

    ``health`` snapshots the run's retry/degradation log at stage
    completion (see :mod:`repro.execution.telemetry`); it rides into
    the report JSON but stays out of the
    :class:`~repro.network.NetworkReport` itself, so recovered runs
    compare bitwise-equal to clean ones.
    """

    simulation: "object"  # repro.network.NetworkSimulation
    report: "object"  # repro.network.NetworkReport
    health: "object | None" = None  # repro.execution.RunHealth

    def summary(self) -> dict:
        out = self.report.to_dict()
        if self.health is not None:
            out["health"] = self.health.to_dict()
        return out


class SimulateNetwork:
    """Whole-backbone simulation for specs carrying a ``network`` section.

    Builds the topology, demand matrix and events from
    :class:`~repro.pipeline.spec.NetworkSpec`, then runs the
    :class:`~repro.network.NetworkEngine` — every link gets the
    superposed, routed packet population streamed through the synthesis
    and measurement engines, a fitted model, a provisioning verdict and
    (with ``validation.detect_anomalies``) the anomaly detector.  The
    per-link knobs come from the scenario's shared sections: ``flows``
    (accounting), ``estimation.delta`` (rate binning) and ``validation``
    (epsilon / detection thresholds).
    """

    name = "simulate_network"

    @staticmethod
    def network_run(spec):
        """The :class:`~repro.network.NetworkRun` of a network scenario."""
        from ..network.engine import NetworkRun

        topology, demands, events = spec.network.build()
        return NetworkRun(
            topology,
            demands,
            routing=spec.network.routing,
            events=events,
            seed=int(spec.seed),
            name=spec.name,
        )

    @staticmethod
    def knobs(spec) -> dict:
        """The engine's measurement and detection knobs of a scenario."""
        return dict(
            delta=spec.estimation.delta,
            flow_kind=spec.flows.kind,
            timeout=spec.flows.timeout,
            min_packets=int(spec.flows.min_packets),
            prefix_length=int(spec.flows.prefix_length),
            epsilon=spec.validation.epsilon,
            detect_anomalies=bool(spec.validation.detect_anomalies),
            threshold_sigma=spec.validation.threshold_sigma,
            min_run=int(spec.validation.min_run),
        )

    def run(self, context: PipelineContext) -> NetworkStageResult:
        from ..network.engine import NetworkEngine

        spec = context.spec
        if spec.network is None:
            raise ParameterError(
                f"scenario {spec.name!r} has no 'network' section; the "
                "SimulateNetwork stage only runs network scenarios"
            )
        run = self.network_run(spec)
        engine = NetworkEngine(**vars(spec.network.execution))
        simulation = engine.simulate(
            run.topology,
            run.demands,
            routing=run.routing,
            events=run.events,
            seed=run.seed,
            name=run.name,
            checkpoint_dir=context.checkpoint_dir,
            resume=bool(context.resume),
            **self.knobs(spec),
        )
        context.network = NetworkStageResult(
            simulation=simulation,
            report=simulation.report(),
            health=run_health(),
        )
        return context.network


@dataclass(frozen=True)
class SweepStageResult:
    """Output of :class:`RunSweep`: per-cell outcomes + the ranked report.

    The run's :class:`~repro.execution.RunHealth` snapshot rides into
    the report JSON (``summary()``) but stays out of the ranked
    :class:`~repro.sweep.report.SweepReport`, so recovered/resumed runs
    compare bitwise-equal to clean ones.
    """

    result: "object"  # repro.sweep.SweepResult
    report: "object"  # repro.sweep.SweepReport

    def summary(self) -> dict:
        out = self.report.to_dict()
        health = getattr(self.result, "health", None)
        if health is not None:
            out["health"] = health.to_dict()
        resumed = getattr(self.result, "resumed", ())
        if resumed:
            out["resumed_cells"] = [int(i) for i in resumed]
        return out


class RunSweep:
    """Capacity-planning sweep for specs carrying a ``sweep`` section.

    Expands the spec's growth/failure/routing axes into concrete
    network-family cells, assesses every cell with the closed-form
    moment-superposition pre-filter, and dispatches the full
    :class:`~repro.network.NetworkEngine` only on cells inside the
    marginal SLA band — fanned over the generation engine's worker pool
    (``sweep.execution.workers``).  See :mod:`repro.sweep`.
    """

    name = "run_sweep"

    def run(self, context: PipelineContext) -> SweepStageResult:
        from ..sweep.service import run_sweep

        spec = context.spec
        if spec.sweep is None:
            raise ParameterError(
                f"scenario {spec.name!r} has no 'sweep' section; the "
                "RunSweep stage only runs sweep scenarios"
            )
        result = run_sweep(
            spec,
            checkpoint_dir=context.checkpoint_dir,
            resume=bool(context.resume),
        )
        context.sweep = SweepStageResult(result=result, report=result.report)
        return context.sweep


class Synthesize:
    """Materialise (or stream) the workload's packet trace.

    When the context already carries a trace (measuring an external
    capture) the stage records it as ``source="provided"`` and skips
    synthesis — anomaly injection still applies.

    With the spec's ``synthesis`` section engaged (``chunk`` or
    ``workers`` set) the workload is *not* materialised: the stage
    hands :class:`AccountFlows` a
    :class:`~repro.synthesis.StreamingSynthesis` and the packets flow
    straight into the streaming measurement engine — synthesize →
    measure in bounded memory, the paper's full-rate OC-12 scale.
    Anomaly injection needs the materialised packet array, so scenarios
    with an ``anomaly`` section fall back to in-memory synthesis; the
    engine's chunk/worker invariance makes the packets identical either
    way.
    """

    name = "synthesize"

    def run(self, context: PipelineContext) -> SynthesisResult:
        spec = context.spec
        anomaly_label = None
        stream = None
        trace = None
        if context.trace is not None:
            trace = context.trace
            source = "provided"
        else:
            if spec.workload is None:
                raise ParameterError(
                    f"scenario {spec.name!r} has no workload section and no "
                    "trace was provided; add a 'workload' to the spec or "
                    "call run_scenario(spec, trace=...)"
                )
            context.workload = spec.workload.build()
            if spec.synthesis.execution.uses_engine and spec.anomaly is None:
                stream = context.workload.synthesize_chunks(
                    seed=spec.seed, **vars(spec.synthesis.execution)
                )
                source = "streamed"
            else:
                trace = context.workload.synthesize(
                    seed=spec.seed, **vars(spec.synthesis.execution)
                ).trace
                source = "synthesized"
        if spec.anomaly is not None:
            trace = _apply_anomaly(trace, spec)
            anomaly_label = spec.anomaly.kind
        if trace is not None:
            context.trace = trace
            context.trace_meta = TraceMeta.from_trace(trace)
        else:
            context.stream = stream
            context.trace_meta = TraceMeta(
                name=stream.name,
                duration=float(stream.duration),
                link_capacity=float(stream.link_capacity),
            )
        context.synthesis = SynthesisResult(
            trace=trace,
            workload=context.workload,
            source=source,
            anomaly=anomaly_label,
            stream=stream,
            meta=context.trace_meta,
        )
        return context.synthesis


def _apply_anomaly(trace: PacketTrace, spec: ScenarioSpec) -> PacketTrace:
    anomaly = spec.anomaly
    # dedicated child stream so injection never perturbs synthesis draws
    rng = as_rng(np.random.default_rng([int(spec.seed), 0xA40]))
    if anomaly.kind == "flood":
        return inject_flood(
            trace,
            start=anomaly.start,
            duration=anomaly.duration,
            rate_bytes_per_s=anomaly.rate_bytes_per_s,
            packet_size=int(anomaly.packet_size),
            rng=rng,
        )
    return inject_outage(
        trace,
        start=anomaly.start,
        duration=anomaly.duration,
        drop_fraction=anomaly.drop_fraction,
        rng=rng,
    )


class ImportFlows:
    """Open the spec's telemetry file as a measurement-ready stream.

    The ``real-trace-fit`` twin of :class:`Synthesize`: instead of
    synthesizing a workload, the stage opens the ``ingest`` section's
    NetFlow v5 / IPFIX / pcap / ``.rptr`` file via
    :func:`repro.interop.open_import_stream` and hands
    :class:`AccountFlows` a time-ordered packet-chunk stream, so the
    paper's idle-timeout flow semantics are re-applied uniformly by the
    measurement engine's open-flow carry table — the archive never
    needs to fit in memory.
    """

    name = "import_flows"

    def run(self, context: PipelineContext) -> IngestResult:
        from ..interop import open_import_stream

        spec = context.spec
        if spec.ingest is None:
            raise ParameterError(
                f"scenario {spec.name!r} has no 'ingest' section; "
                "ImportFlows only runs in real-trace-fit scenarios"
            )
        path = spec.ingest.require_path()
        stream = open_import_stream(
            path,
            format=spec.ingest.format,
            chunk=spec.ingest.chunk,
            order=spec.ingest.order,
            rebase=spec.ingest.rebase,
            duration=spec.ingest.duration,
            link_capacity=spec.ingest.link_capacity_bps,
            errors=spec.ingest.errors,
        )
        if stream.scan.empty:
            raise ParameterError(
                f"{path}: the archive contains no flow records or packets; "
                "nothing to fit"
            )
        context.stream = stream
        context.trace_meta = TraceMeta(
            name=Path(path).stem,
            duration=float(stream.duration),
            link_capacity=float(stream.link_capacity or 0.0),
        )
        context.ingest = IngestResult(
            path=str(path),
            format=str(stream.format),
            order=str(getattr(stream, "order", "start")),
            stream=stream,
            meta=context.trace_meta,
        )
        return context.ingest


class AccountFlows:
    """NetFlow-style flow accounting over the packets (section III).

    The one place packets become flows and a rate series: a synthesis
    or import stream (``context.stream``) and a materialised trace
    (``context.trace``) both run through the
    :class:`~repro.measurement.MeasurementEngine`, which accumulates the
    single-packet-filtered rate series — and, when the validation stage
    detects anomalies, the raw link-rate series — in the same pass.
    The ``measurement`` section's chunk/workers/backend only change
    memory and wall-clock, never the result.
    """

    name = "account_flows"

    def run(self, context: PipelineContext) -> AccountingResult:
        spec = context.spec
        engine = MeasurementEngine(**vars(spec.measurement.execution))
        if context.stream is not None:
            measure, packets = engine.measure_chunks, context.stream
        else:
            measure = engine.measure_trace
            packets = context.require("trace", self.name)
        measured = measure(
            packets,
            duration=context.require_meta(self.name).duration,
            delta=spec.estimation.delta,
            key=spec.flows.kind,
            timeout=spec.flows.timeout,
            min_packets=int(spec.flows.min_packets),
            prefix_length=int(spec.flows.prefix_length),
            keep_raw_series=bool(spec.validation.detect_anomalies),
        )
        context.accounting = AccountingResult(
            flows=measured.flows,
            series=measured.series,
            raw_series=measured.raw_series,
        )
        return context.accounting


class Estimate:
    """Measured rate series + three-parameter summary (sections V-F/V-G)."""

    name = "estimate"

    def run(self, context: PipelineContext) -> EstimationResult:
        spec = context.spec
        meta = context.require_meta(self.name)
        accounting = context.require("accounting", self.name)
        statistics = accounting.flows.statistics(meta.duration)
        online = None
        if spec.estimation.estimator == "ewma":
            online = replay_flow_statistics(
                accounting.flows, spec.estimation.ewma_eps
            )
        context.estimation = EstimationResult(
            series=accounting.series,
            statistics=statistics,
            online_statistics=online,
        )
        return context.estimation


@dataclass(frozen=True)
class CalibrationResult:
    """What the calibrate stage produced: the fit, and (optionally) the
    closed-loop verdict."""

    report: CalibrationReport
    closed_loop: ClosedLoopReport | None = None
    powers: tuple[float, ...] = ()

    def summary(self) -> dict:
        out = {"calibration": self.report.summary()}
        if self.powers:
            out["powers"] = list(self.powers)
        if self.closed_loop is not None:
            out["closed_loop"] = self.closed_loop.to_dict()
        return out


class Calibrate:
    """Fit the paper's size-law families to the measured flows.

    Runs right after flow accounting/estimation, on whatever produced
    the flows — a synthesized workload, or telemetry imported by
    :class:`ImportFlows` — and no-ops (returns ``None``) when the spec
    carries no ``calibration`` section, so existing scenarios are
    untouched.  With ``calibration.validate`` set, the closed loop runs
    inline: synthesize from the fitted spec, compare λ, E[S],
    utilization moments and tail quantiles within the declared
    tolerances (failures land in the result, not as an exception — the
    CLI turns them into a nonzero exit).
    """

    name = "calibrate"

    def run(self, context: PipelineContext) -> CalibrationResult | None:
        spec = context.spec
        section = spec.calibration
        if section is None:
            return None
        meta = context.require_meta(self.name)
        flows = context.require("accounting", self.name).flows
        seed = section.seed if section.seed is not None else spec.seed
        powers = (
            section.powers if section.powers is not None else spec.fit.powers
        )
        report = calibrate_flows(
            flows,
            duration=meta.duration,
            source=meta.name,
            families=section.families,
            select=section.select,
            restarts=int(section.restarts),
            seed=int(seed),
            bins=int(section.bins),
            tail_k=int(section.tail_k),
            time_bins=int(section.time_bins),
            tail_quantiles=section.tail_quantiles,
            link_capacity_bps=meta.link_capacity or None,
            metadata={"scenario": spec.name},
            **vars(section.execution),
        )
        closed = None
        if section.validate:
            source_cov = None
            if context.estimation is not None:
                values = context.estimation.series.values
                if values.size and values.mean() > 0.0:
                    source_cov = float(values.std() / values.mean())
            closed = validate_fitted_spec(
                report,
                seed=int(seed),
                duration=section.validate_duration,
                delta=spec.estimation.delta,
                lambda_rtol=section.lambda_rtol,
                mean_rtol=section.mean_rtol,
                rate_rtol=section.rate_rtol,
                tail_rtol=section.tail_rtol,
                cov_atol=section.cov_atol,
                source_rate_cov=source_cov,
                execution=section.execution,
            )
        context.calibration = CalibrationResult(
            report=report, closed_loop=closed, powers=tuple(powers)
        )
        return context.calibration


class FitModel:
    """Parameterise the shot-noise model and fit the shot power."""

    name = "fit_model"

    def run(self, context: PipelineContext) -> FitResult:
        spec = context.spec
        meta = context.require_meta(self.name)
        flows = context.require("accounting", self.name).flows
        series = context.require("estimation", self.name).series
        model = PoissonShotNoiseModel.from_flows(
            flows.sizes, flows.durations, meta.duration
        )
        power_fit = model.fit_power(series.variance)
        fitted = model.with_shot(power_fit.shot)
        model_cov = {
            float(b): model.with_shot(PowerShot(b)).coefficient_of_variation
            for b in spec.fit.powers
        }
        superposed, note = None, None
        if spec.fit.class_split_bytes is not None:
            superposed, note = _fit_classes(
                flows, meta.duration, spec.fit.class_split_bytes,
                power_fit.shot,
            )
        context.fit = FitResult(
            model=model,
            power_fit=power_fit,
            fitted=fitted,
            model_cov=model_cov,
            superposed=superposed,
            class_note=note,
        )
        return context.fit


def _fit_classes(flows, duration, threshold, shot):
    """Mice/elephants split → per-class models → SuperposedModel."""
    try:
        mice, elephants = flows.partition_by_size(threshold)
    except ParameterError:
        return None, (
            f"class split at {threshold:g} B left one class empty; "
            "superposition skipped"
        )
    components = [
        PoissonShotNoiseModel.from_flows(
            part.sizes, part.durations, duration, shot=shot
        )
        for part in (mice, elephants)
    ]
    return SuperposedModel(components), None


class Generate:
    """Model-driven rate generation through the engine (section VII-C)."""

    name = "generate"

    def run(self, context: PipelineContext) -> GenerationResult | None:
        spec = context.spec
        if spec.generation is None:
            return None
        meta = context.require_meta(self.name)
        fitted = context.require("fit", self.name).fitted
        gen = spec.generation
        duration = gen.duration if gen.duration is not None else meta.duration
        delta = gen.delta if gen.delta is not None else spec.estimation.delta
        seed = gen.seed if gen.seed is not None else spec.seed
        engine = GenerationEngine(
            chunk=gen.chunk, workers=int(gen.workers), backend=gen.backend
        )
        series = engine.rate_series(
            fitted.arrival_rate,
            fitted.ensemble,
            fitted.shot,
            duration,
            delta,
            seed=seed,
        )
        context.generation = GenerationResult(
            series=series,
            seed=int(seed),
            chunk=gen.chunk,
            workers=int(gen.workers),
        )
        return context.generation


class Validate:
    """Measured-vs-model comparison: CoV band, autocorrelation, QQ."""

    name = "validate"

    def run(self, context: PipelineContext) -> ValidationReport:
        spec = context.spec
        accounting = context.require("accounting", self.name)
        flows = accounting.flows
        estimation = context.require("estimation", self.name)
        fit = context.require("fit", self.name)
        series = estimation.series

        measured_cov = series.coefficient_of_variation
        fitted_cov = fit.fitted.coefficient_of_variation
        relative_error = fitted_cov / measured_cov - 1.0

        max_lag = min(int(spec.validation.max_lag), len(series) - 1)
        lags_s: tuple[float, ...] = ()
        acf_measured: tuple[float, ...] = ()
        acf_model: tuple[float, ...] = ()
        rmse = float("nan")
        if max_lag >= 1:
            lag_axis = np.arange(1, max_lag + 1) * series.delta
            measured_acf = series.autocorrelation(max_lag)
            model_acf = np.asarray(fit.fitted.autocorrelation(lag_axis))
            lags_s = tuple(float(v) for v in lag_axis)
            acf_measured = tuple(float(v) for v in measured_acf)
            acf_model = tuple(float(v) for v in model_acf)
            rmse = float(
                np.sqrt(np.mean((measured_acf - model_acf) ** 2))
            )

        interarrivals = None
        gaps = np.diff(np.sort(flows.starts))
        gaps = gaps[gaps > 0.0]
        if gaps.size >= max(10, int(spec.validation.qq_points) // 5):
            try:
                interarrivals = exponentiality(gaps)
            except ReproError:
                interarrivals = None

        generated_cov = None
        generated_error = None
        if context.generation is not None:
            generated_cov = (
                context.generation.series.coefficient_of_variation
            )
            generated_error = generated_cov / measured_cov - 1.0

        superposed_cov = None
        if fit.superposed is not None:
            superposed_cov = fit.superposed.coefficient_of_variation

        anomalies: tuple[AnomalyEvent, ...] = ()
        anomaly_delta = None
        if spec.validation.detect_anomalies:
            # A router watches the raw link rate: detection runs on the
            # unmasked series (floods of single-packet flows are excluded
            # from the *measured* series by the exporter's discard rule).
            # The baseline is the rectangular-shot model — its variance
            # comes from flow statistics alone (Theorem 3), so an anomaly
            # that inflates the measured variance cannot widen the fitted
            # band and mask itself.
            detector = AnomalyDetector(
                fit.model.gaussian(),
                threshold_sigma=spec.validation.threshold_sigma,
                min_run=int(spec.validation.min_run),
            )
            anomalies = tuple(detector.detect(accounting.raw_series))
            anomaly_delta = float(spec.estimation.delta)

        context.validation = ValidationReport(
            scenario=spec.name,
            seed=int(spec.seed),
            measured_cov=float(measured_cov),
            measured_mean_bps=float(series.mean * 8.0),
            model_cov=dict(fit.model_cov),
            fitted_power=float(fit.power_fit.power),
            fitted_cov=float(fitted_cov),
            relative_error=float(relative_error),
            cov_band=float(spec.validation.cov_band),
            within_band=bool(abs(relative_error) <= spec.validation.cov_band),
            required_capacity_bps=float(
                8.0 * fit.fitted.required_capacity(spec.validation.epsilon)
            ),
            epsilon=float(spec.validation.epsilon),
            autocorrelation_lags_s=lags_s,
            autocorrelation_measured=acf_measured,
            autocorrelation_model=acf_model,
            autocorrelation_rmse=rmse,
            interarrivals=interarrivals,
            generated_cov=generated_cov,
            generated_vs_measured_error=generated_error,
            superposed_cov=superposed_cov,
            anomalies=anomalies,
            anomaly_delta_s=anomaly_delta,
        )
        return context.validation
