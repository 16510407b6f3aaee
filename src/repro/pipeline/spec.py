"""Declarative scenario specifications — the pipeline's serializable layer.

A :class:`ScenarioSpec` is a frozen, validated, JSON-round-trippable
description of one end-to-end experiment: which link/workload to
synthesize (or which trace to measure), how to account flows, how to
estimate the three-parameter summary (``lambda``, ``E[S]``, ``E[S^2/D]``),
which shot powers to compare, how to generate model-driven traffic, and
what to validate.  Specs are plain data — no callables, no live objects —
so they can live in version-controlled JSON files, be listed in a
:class:`~repro.pipeline.registry.ScenarioRegistry`, and be fanned out in
parallel over the generation engine's worker pool.

Every nested section is itself a frozen dataclass with its own validation;
``ScenarioSpec.from_dict`` rejects unknown keys with a message listing the
valid ones, so a typo in a spec file fails loudly instead of silently
falling back to a default.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .._util import check_integer, check_positive
from ..exceptions import ParameterError
from ..execution import ExecutionSpec, RetryPolicy
from ..netsim.arrivals import (
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
    SessionArrivals,
)
from ..netsim.sizes import CALIBRATION_FAMILIES, size_law
from ..netsim.workloads import (
    DEFAULT_SCALE,
    OC12_BPS,
    TABLE_I_ROWS,
    LinkWorkload,
    table_i_workload,
)

__all__ = [
    "PRESET_ALIASES",
    "resolve_preset",
    "ArrivalSpec",
    "WorkloadSpec",
    "FlowAccountingSpec",
    "ExecutionSpec",
    "RetryPolicy",
    "IngestSpec",
    "INGEST_FORMATS",
    "SynthesisSpec",
    "MeasurementSpec",
    "EstimationSpec",
    "FitSpec",
    "CALIBRATION_FAMILIES",
    "SELECTION_CRITERIA",
    "SizeDistributionSpec",
    "CalibrationSpec",
    "GenerationSpec",
    "AnomalySpec",
    "ValidationSpec",
    "TopologySpec",
    "TopologyLinkSpec",
    "DemandSpec",
    "NetworkEventSpec",
    "NetworkSpec",
    "SweepSpec",
    "ScenarioSpec",
]

#: Named presets mapping to Table I rows (matches the original CLI names:
#: ``low`` is the 26 Mbps-class link, ``medium`` the 136 Mbps-class one,
#: ``high`` the 262 Mbps-class one).
PRESET_ALIASES: dict[str, int] = {"low": 3, "medium": 4, "high": 2}


def resolve_preset(preset) -> int:
    """Map a preset name or Table I row reference to a row index.

    Accepts ``"low" | "medium" | "high"``, a row index ``0..6`` (as int or
    string), or ``"table-i-<row>"``.  Raises :class:`ParameterError` with
    the full list of valid choices on anything else — no bare
    ``int(...)`` crashes on unknown names.
    """
    n_rows = len(TABLE_I_ROWS)
    if isinstance(preset, (int, np.integer)):
        index = int(preset)
    else:
        text = str(preset).strip().lower()
        if text in PRESET_ALIASES:
            return PRESET_ALIASES[text]
        tail = text[len("table-i-"):] if text.startswith("table-i-") else text
        try:
            index = int(tail)
        except ValueError:
            choices = ", ".join(sorted(PRESET_ALIASES))
            raise ParameterError(
                f"unknown preset {preset!r}; valid presets are {choices}, "
                f"a Table I row index 0-{n_rows - 1}, or 'table-i-<row>'"
            ) from None
    if not 0 <= index < n_rows:
        raise ParameterError(
            f"Table I row index must lie in 0-{n_rows - 1}, got {index}"
        )
    return index


# -- serialization helpers -------------------------------------------------

#: Nested spec types, keyed by (owner class name, field name); used by the
#: strict dict decoder to rebuild sub-specs.
_NESTED: dict[tuple[str, str], type] = {}


def _register_nested(owner: str, name: str, spec_type: type) -> None:
    _NESTED[(owner, name)] = spec_type


def _to_jsonable(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _to_jsonable(getattr(value, f.name)) for f in fields(value)
        }
    if isinstance(value, (tuple, list)):
        return [_to_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def _spec_from_dict(cls, data, *, path: str):
    """Strictly decode ``data`` into spec dataclass ``cls``.

    Unknown keys raise with the list of valid keys; nested sections recurse
    with a dotted path so the error pinpoints the offending entry.
    """
    if not isinstance(data, dict):
        raise ParameterError(
            f"{path} must be a JSON object, got {type(data).__name__}"
        )
    valid = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - valid)
    if unknown:
        raise ParameterError(
            f"{path}: unknown key(s) {unknown}; valid keys are {sorted(valid)}"
        )
    kwargs = {}
    for name in valid:
        if name not in data:
            continue
        value = data[name]
        nested = _NESTED.get((cls.__name__, name))
        if nested is not None and value is not None:
            value = _spec_from_dict(nested, value, path=f"{path}.{name}")
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        # ParameterError is a ValueError; plain ValueError/TypeError come
        # from mistyped values (e.g. "duration": "long") hitting float()
        # casts — wrap them all so a bad spec file fails with the path,
        # never a raw traceback.
        raise ParameterError(f"{path}: {exc}") from None


def _freeze_tuple(spec, name: str, cast=float) -> None:
    value = getattr(spec, name)
    object.__setattr__(spec, name, tuple(cast(v) for v in value))


def _check_choice(path: str, value: str, choices: tuple[str, ...]) -> str:
    if value not in choices:
        raise ParameterError(
            f"{path} must be one of {sorted(choices)}, got {value!r}"
        )
    return value


# -- spec sections ---------------------------------------------------------


@dataclass(frozen=True)
class ArrivalSpec:
    """Serializable flow-arrival process description.

    ``kind`` selects the process; only the parameters of that kind are
    consulted.  Rates are *relative* to the workload's derived arrival rate
    so the spec stays valid when the target utilisation changes:

    * ``poisson`` — homogeneous Poisson (Assumption 1; the default).
    * ``mmpp`` — two-state MMPP at ``rate_factors x lambda`` with the given
      mean sojourns (seconds).
    * ``diurnal`` — sinusoidal time-of-day ramp of relative amplitude
      ``relative_amplitude`` and ``period`` seconds (``None`` = one full
      period per workload duration).
    * ``sessions`` — Poisson sessions each spawning a geometric number of
      flows; the session rate is scaled so the mean *flow* rate stays
      ``lambda``.
    """

    kind: str = "poisson"
    rate_factors: tuple[float, float] = (0.5, 2.0)
    mean_sojourns: tuple[float, float] = (10.0, 10.0)
    relative_amplitude: float = 0.5
    period: float | None = None
    phase: float = 0.0
    flows_per_session: float = 4.0
    think_time: float = 2.0

    def __post_init__(self) -> None:
        _check_choice(
            "arrivals.kind", self.kind, ("poisson", "mmpp", "diurnal", "sessions")
        )
        _freeze_tuple(self, "rate_factors")
        _freeze_tuple(self, "mean_sojourns")
        if len(self.rate_factors) != 2 or len(self.mean_sojourns) != 2:
            raise ParameterError(
                "arrivals.rate_factors and arrivals.mean_sojourns must each "
                "have exactly two entries (two MMPP states)"
            )
        if not 0.0 <= float(self.relative_amplitude) < 1.0:
            raise ParameterError(
                "arrivals.relative_amplitude must lie in [0, 1), got "
                f"{self.relative_amplitude!r}"
            )
        if self.period is not None:
            check_positive("arrivals.period", self.period)
        if self.flows_per_session < 1.0:
            raise ParameterError(
                "arrivals.flows_per_session must be >= 1, got "
                f"{self.flows_per_session!r}"
            )
        check_positive("arrivals.think_time", self.think_time)

    def build(self, arrival_rate: float, duration: float):
        """Materialise the arrival process for a derived flow rate."""
        if self.kind == "poisson":
            return PoissonArrivals(arrival_rate)
        if self.kind == "mmpp":
            return MMPPArrivals(
                [arrival_rate * f for f in self.rate_factors],
                self.mean_sojourns,
            )
        if self.kind == "diurnal":
            return DiurnalArrivals(
                arrival_rate,
                relative_amplitude=self.relative_amplitude,
                period=self.period if self.period is not None else duration,
                phase=self.phase,
            )
        return SessionArrivals(
            arrival_rate / self.flows_per_session,
            flows_per_session=self.flows_per_session,
            think_time=self.think_time,
        )


@dataclass(frozen=True)
class SizeDistributionSpec:
    """A serializable flow-size law for the workload to draw from.

    ``kind`` names one of the :data:`repro.netsim.sizes.SIZE_LAWS`
    families; exactly the parameters of that kind must be set (anything
    else is an error, so a stray ``alpha`` on a lognormal fails loudly).
    This is the section :meth:`CalibrationReport.to_scenario_spec`
    emits, and the one behind the ``campus-mixture-*`` registry presets.
    """

    kind: str
    median: float | None = None
    sigma: float | None = None
    alpha: float | None = None
    minimum: float | None = None
    maximum: float | None = None
    mean_bytes: float | None = None
    body_weight: float | None = None

    def __post_init__(self) -> None:
        # the law checks the kind, the parameter names and their values
        size_law(self.kind, self._given())

    def _given(self) -> dict:
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "kind" and getattr(self, f.name) is not None
        }

    def params(self) -> dict:
        """The kind's parameters as the calibration layer's dict form."""
        return {k: float(v) for k, v in self._given().items()}

    @classmethod
    def from_family(cls, family: str, params: dict) -> "SizeDistributionSpec":
        """Build from a calibration ``(family, params)`` pair."""
        size_law(family, params)  # reject unknown names and stray keys
        return cls(kind=family, **{k: float(v) for k, v in params.items()})

    def build(self):
        """Materialise the ``repro.netsim.sizes`` distribution."""
        return size_law(self.kind, self.params())


@dataclass(frozen=True)
class WorkloadSpec:
    """Which link to synthesize: a Table I preset or custom rates.

    Exactly one of ``preset`` and ``target_mean_rate_bps`` must be set.
    ``arrivals`` optionally replaces the default Poisson flow arrivals;
    ``sizes`` optionally replaces the default mice-and-elephants flow
    size law (this is how calibrated specs carry their fitted family).
    """

    preset: str | None = None
    target_mean_rate_bps: float | None = None
    link_capacity_bps: float | None = None
    scale: float = DEFAULT_SCALE
    duration: float = 120.0
    name: str = ""
    arrivals: ArrivalSpec | None = None
    sizes: SizeDistributionSpec | None = None

    def __post_init__(self) -> None:
        if (self.preset is None) == (self.target_mean_rate_bps is None):
            raise ParameterError(
                "workload needs exactly one of 'preset' (low/medium/high or "
                "a Table I row) or 'target_mean_rate_bps' (a custom link)"
            )
        if self.preset is not None:
            resolve_preset(self.preset)  # fail fast on unknown presets
        else:
            check_positive(
                "workload.target_mean_rate_bps", self.target_mean_rate_bps
            )
        if self.link_capacity_bps is not None:
            check_positive("workload.link_capacity_bps", self.link_capacity_bps)
        check_positive("workload.scale", self.scale)
        check_positive("workload.duration", self.duration)

    def build(self) -> LinkWorkload:
        """Materialise the :class:`LinkWorkload` this spec describes."""
        if self.preset is not None:
            workload = table_i_workload(
                resolve_preset(self.preset),
                scale=self.scale,
                duration=self.duration,
            )
            if self.link_capacity_bps is not None:
                workload = dataclasses.replace(
                    workload, link_capacity_bps=self.link_capacity_bps
                )
        else:
            workload = LinkWorkload(
                name=self.name or "custom",
                target_mean_rate_bps=self.target_mean_rate_bps,
                link_capacity_bps=(
                    self.link_capacity_bps
                    if self.link_capacity_bps is not None
                    else OC12_BPS * self.scale
                ),
                duration=self.duration,
            )
        if self.sizes is not None:
            workload = dataclasses.replace(
                workload, size_dist=self.sizes.build()
            )
        if self.name:
            workload = dataclasses.replace(workload, name=self.name)
        if self.arrivals is not None and self.arrivals.kind != "poisson":
            workload = dataclasses.replace(
                workload,
                arrivals=self.arrivals.build(
                    workload.arrival_rate, self.duration
                ),
            )
        return workload


_register_nested("WorkloadSpec", "arrivals", ArrivalSpec)
_register_nested("WorkloadSpec", "sizes", SizeDistributionSpec)


@dataclass(frozen=True)
class FlowAccountingSpec:
    """Flow-definition knobs for the NetFlow-style exporter (section III)."""

    kind: str = "five_tuple"
    timeout: float = 8.0
    prefix_length: int = 24
    min_packets: int = 2

    def __post_init__(self) -> None:
        _check_choice("flows.kind", self.kind, ("five_tuple", "prefix"))
        check_positive("flows.timeout", self.timeout)
        if not 1 <= int(self.prefix_length) <= 32:
            raise ParameterError(
                f"flows.prefix_length must lie in 1-32, got {self.prefix_length!r}"
            )
        if int(self.min_packets) < 1:
            raise ParameterError(
                f"flows.min_packets must be >= 1, got {self.min_packets!r}"
            )


_register_nested("ExecutionSpec", "retry", RetryPolicy)


def _section_execution(section: str, execution) -> ExecutionSpec:
    """A section's ``execution`` field, defaulted and type-checked."""
    if execution is None:
        return ExecutionSpec()
    if not isinstance(execution, ExecutionSpec):
        raise ParameterError(
            f"{section}.execution must be an ExecutionSpec (or a JSON "
            f"object), got {type(execution).__name__}"
        )
    return execution


def _alias_execution(cls):
    """Attach read-through ``chunk``/``workers``/``backend`` aliases.

    Call sites read the knobs directly off the section; the aliases
    keep those reads short while the stored representation is one
    ``execution`` field.
    """
    cls.chunk = property(lambda self: self.execution.chunk)
    cls.workers = property(lambda self: self.execution.workers)
    cls.backend = property(lambda self: self.execution.backend)
    cls.retry = property(lambda self: self.execution.retry)

    def with_execution(self, execution=None, **knobs):
        """A copy with only the execution strategy swapped out.

        Give either a whole :class:`ExecutionSpec` or individual knobs
        (``chunk``/``workers``/``backend``/``retry``); omitted knobs
        keep their current values.
        """
        if execution is None:
            execution = dataclasses.replace(self.execution, **knobs)
        return dataclasses.replace(self, execution=execution)

    cls.with_execution = with_execution
    return cls


@dataclass(frozen=True)
class SynthesisSpec:
    """How the synthesize stage executes (not *what* it synthesizes).

    ``execution.chunk`` (packets) and ``execution.workers`` drive the
    streaming :class:`~repro.synthesis.SynthesisEngine`: the workload's
    arrival timeline is cut into seed-owning cells, synthesized on
    ``workers`` threads and merged into time-ordered packet chunks that
    stream straight into the measurement stage — the trace is never
    materialised.  The defaults keep the classic in-memory trace; either
    knob switches to streaming, whose output is bit-for-bit identical
    for any setting — this section is pure execution strategy, so it
    never changes a scenario's results.  (Scenarios that need the
    materialised trace — anomaly injection — fall back to in-memory
    synthesis through the same engine, with identical packets.)
    """

    execution: ExecutionSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "execution",
            _section_execution("synthesis", self.execution),
        )


@dataclass(frozen=True)
class MeasurementSpec:
    """How the measurement stages execute (not *what* they measure).

    ``execution.chunk`` (packets) and ``execution.workers`` drive the
    streaming :class:`~repro.measurement.MeasurementEngine`: flow
    accounting and rate measurement run chunk by chunk with the key
    space sharded over a worker pool.  The defaults measure the whole
    trace as one chunk on one shard; the output is bit-for-bit
    identical for any setting — this section is pure execution
    strategy, so it never changes a scenario's results.
    """

    execution: ExecutionSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "execution",
            _section_execution("measurement", self.execution),
        )


_alias_execution(SynthesisSpec)
_alias_execution(MeasurementSpec)
_register_nested("SynthesisSpec", "execution", ExecutionSpec)
_register_nested("MeasurementSpec", "execution", ExecutionSpec)


#: Telemetry formats the ingest stage accepts (``"auto"`` sniffs magic
#: bytes).  Mirrors ``repro.interop.IMPORT_FORMATS``; kept literal here so
#: the spec layer stays pure data with no engine imports.
INGEST_FORMATS = ("auto", "rptr", "netflow5", "ipfix", "pcap")


@dataclass(frozen=True)
class IngestSpec:
    """Where a real-trace scenario's packets come from.

    Replaces the ``workload`` section for the ``real-trace-fit`` family:
    instead of synthesizing traffic, the pipeline streams an operator
    telemetry file — a NetFlow v5/cflowd or IPFIX flow archive, a pcap
    capture, or a native ``.rptr`` trace — through the measurement
    engine's open-flow carry table, so the paper's idle-timeout flow
    semantics are re-applied uniformly and the archive never needs to
    fit in memory.

    ``order`` governs flow-record archives: ``"start"`` streams records
    that are already start-ordered (erroring if they are not),
    ``"export"`` sorts the record table in memory (still out-of-core
    with respect to *packets*), ``"auto"`` scans once and picks.
    ``rebase`` moves epoch-anchored clocks to a 0-based capture clock
    (``"auto"`` rebases only epoch-like timestamps).  ``duration``
    (seconds) and ``link_capacity_bps`` override what the scan/header
    provides — capacity is needed for utilisation whenever the archive
    does not carry it (every format except ``.rptr``).

    ``errors`` chooses how malformed telemetry is handled: ``"strict"``
    (the default) aborts on the first bad datagram/record with a
    :class:`~repro.exceptions.TraceFormatError`; ``"skip"`` drops the
    bad unit, counts it, and keeps streaming — the operator-friendly
    mode for multi-GB archives with the odd truncated export packet.

    Of ``execution``, only ``chunk`` is read: it is the reader's block
    size (records or packets per decoded block).  Its ``workers``,
    ``backend`` and ``retry`` are never read, because flow accounting
    runs on the ``measurement`` section's execution.
    """

    path: str = ""
    format: str = "auto"
    order: str = "auto"
    rebase: str = "auto"
    errors: str = "strict"
    duration: float | None = None
    link_capacity_bps: float | None = None
    execution: ExecutionSpec | None = None

    def __post_init__(self) -> None:
        _check_choice("ingest.format", self.format, INGEST_FORMATS)
        _check_choice("ingest.order", self.order, ("auto", "start", "export"))
        _check_choice(
            "ingest.rebase", self.rebase, ("auto", "always", "never")
        )
        _check_choice("ingest.errors", self.errors, ("strict", "skip"))
        if self.duration is not None:
            object.__setattr__(self, "duration", float(self.duration))
            check_positive("ingest.duration", self.duration)
        if self.link_capacity_bps is not None:
            object.__setattr__(
                self, "link_capacity_bps", float(self.link_capacity_bps)
            )
            check_positive("ingest.link_capacity_bps", self.link_capacity_bps)
        object.__setattr__(
            self,
            "execution",
            _section_execution("ingest", self.execution),
        )

    def require_path(self) -> str:
        """The telemetry path, or a clear error if the spec is a template.

        Registry presets ship with ``path: ""`` — the user points them at
        their own archive via ``with_overrides``/``--ingest-path``.
        """
        if not str(self.path).strip():
            raise ParameterError(
                "ingest.path is empty: point the scenario at a telemetry "
                "file (NetFlow v5, IPFIX, pcap or .rptr)"
            )
        return str(self.path)


_alias_execution(IngestSpec)
_register_nested("IngestSpec", "execution", ExecutionSpec)


@dataclass(frozen=True)
class EstimationSpec:
    """Rate measurement and parameter estimation (sections V-F and V-G).

    ``estimator`` chooses how the three-parameter summary is reported:
    ``"batch"`` computes the interval means the paper uses; ``"ewma"``
    additionally replays the flows through the router-style
    :class:`~repro.stats.estimators.OnlineFlowStatistics` EWMA loop and
    reports its snapshot alongside (the batch summary always feeds the
    fit, so the two estimators can be compared on equal footing).
    """

    delta: float = 0.2
    estimator: str = "batch"
    ewma_eps: float = 0.01

    def __post_init__(self) -> None:
        check_positive("estimation.delta", self.delta)
        _check_choice("estimation.estimator", self.estimator, ("batch", "ewma"))
        if not 0.0 < float(self.ewma_eps) <= 1.0:
            raise ParameterError(
                f"estimation.ewma_eps must lie in (0, 1], got {self.ewma_eps!r}"
            )


@dataclass(frozen=True)
class FitSpec:
    """Shot comparison and fitting (section V-D).

    ``powers`` are the shot exponents whose model CoV is reported next to
    the fitted one.  ``class_split_bytes`` enables the section VIII
    multi-class extension: flows are partitioned into mice/elephants at
    the byte threshold and a per-class :class:`SuperposedModel` is built
    alongside the single-class fit.
    """

    powers: tuple[float, ...] = (0.0, 1.0, 2.0)
    class_split_bytes: float | None = None

    def __post_init__(self) -> None:
        _freeze_tuple(self, "powers")
        _validate_powers("fit", self.powers)
        if self.class_split_bytes is not None:
            check_positive("fit.class_split_bytes", self.class_split_bytes)


def _validate_powers(section: str, powers) -> None:
    """The one validation path for shot-power lists, section-qualified.

    Shared by ``fit:`` and ``calibration:`` so both sections reject bad
    powers with identical, section-named messages (see MIGRATION.md on
    when to use which section).
    """
    if not powers:
        raise ParameterError(
            f"{section}.powers must name at least one shot power"
        )
    for p in powers:
        if not np.isfinite(p) or p < 0.0:
            raise ParameterError(
                f"{section}.powers entries must be finite and >= 0, got {p!r}"
            )


#: Model-selection criteria the calibration stage accepts.  Mirrors
#: ``repro.calibration.SELECTION_CRITERIA`` (pinned by a test); literal
#: here so the spec layer stays pure data with no engine imports.
SELECTION_CRITERIA = ("bic", "aic", "loglik", "ks")

@dataclass(frozen=True)
class CalibrationSpec:
    """Fit the paper's model to the measured flows (``repro.calibration``).

    Rides after flow accounting: whatever produced the flows — a
    synthesized workload or ingested telemetry — this section fits every
    family in ``families`` to the flow-size population through
    bounded-memory accumulators, selects the winner under ``select``,
    and lands a :class:`~repro.calibration.CalibrationReport` in the
    scenario result.  ``validate: true`` additionally runs the closed
    loop — synthesize from the fitted spec, compare λ, E[S], utilization
    moments and tail quantiles within the declared tolerances.

    ``powers`` defaults to the ``fit:`` section's shot powers; setting
    both to different values is a :class:`ParameterError` (the two
    sections share one validation path — see MIGRATION.md for when to
    use which).  ``seed`` defaults to the scenario seed; it drives the
    EM restarts and the closed-loop synthesis, so a fixed seed makes
    the whole calibration bitwise reproducible across
    ``{serial, thread, process}`` x ``{chunk, workers}``.
    """

    families: tuple[str, ...] = CALIBRATION_FAMILIES
    select: str = "bic"
    bins: int = 512
    tail_k: int = 512
    time_bins: int = 24
    restarts: int = 4
    seed: int | None = None
    powers: tuple[float, ...] | None = None
    tail_quantiles: tuple[float, ...] = (0.5, 0.9, 0.99, 0.999)
    validate: bool = False
    validate_duration: float | None = None
    lambda_rtol: float = 0.02
    mean_rtol: float = 0.02
    rate_rtol: float = 0.10
    tail_rtol: float = 0.35
    cov_atol: float = 0.25
    execution: ExecutionSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "execution",
            _section_execution("calibration", self.execution),
        )
        object.__setattr__(self, "families", tuple(self.families))
        if not self.families:
            raise ParameterError(
                "calibration.families must name at least one size-law family"
            )
        for family in self.families:
            _check_choice(
                "calibration.families", family, CALIBRATION_FAMILIES
            )
        _check_choice("calibration.select", self.select, SELECTION_CRITERIA)
        if int(self.bins) < 16:
            raise ParameterError(
                f"calibration.bins must be >= 16, got {self.bins!r}"
            )
        if int(self.tail_k) < 8:
            raise ParameterError(
                f"calibration.tail_k must be >= 8, got {self.tail_k!r}"
            )
        if int(self.time_bins) < 1:
            raise ParameterError(
                f"calibration.time_bins must be >= 1, got {self.time_bins!r}"
            )
        if int(self.restarts) < 1:
            raise ParameterError(
                f"calibration.restarts must be >= 1, got {self.restarts!r}"
            )
        if self.seed is not None and int(self.seed) < 0:
            raise ParameterError(
                f"calibration.seed must be >= 0, got {self.seed!r}"
            )
        if self.powers is not None:
            _freeze_tuple(self, "powers")
            _validate_powers("calibration", self.powers)
        _freeze_tuple(self, "tail_quantiles")
        if not self.tail_quantiles:
            raise ParameterError(
                "calibration.tail_quantiles must name at least one quantile"
            )
        for q in self.tail_quantiles:
            if not 0.0 < q < 1.0:
                raise ParameterError(
                    "calibration.tail_quantiles entries must lie in (0, 1), "
                    f"got {q!r}"
                )
        if self.validate_duration is not None:
            check_positive(
                "calibration.validate_duration", self.validate_duration
            )
        for name in (
            "lambda_rtol", "mean_rtol", "rate_rtol", "tail_rtol", "cov_atol",
        ):
            check_positive(f"calibration.{name}", getattr(self, name))


_alias_execution(CalibrationSpec)
_register_nested("CalibrationSpec", "execution", ExecutionSpec)


@dataclass(frozen=True)
class GenerationSpec:
    """Model-driven generation of section VII-C traffic via the engine.

    The output is bitwise invariant to chunk and workers.
    ``duration``/``delta``/``seed`` default to the workload duration, the
    estimation delta and the scenario seed respectively.
    """

    duration: float | None = None
    delta: float | None = None
    chunk: float | None = None
    workers: int = 1
    backend: str = "thread"
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.duration is not None:
            check_positive("generation.duration", self.duration)
        if self.delta is not None:
            check_positive("generation.delta", self.delta)
        if self.chunk is not None:
            # generation.chunk is a *time window in seconds* (the rate
            # sampler's horizon splitting), not a packet count — the one
            # execution knob ExecutionSpec does not cover, so this
            # section keeps its own keys; workers/backend go through
            # ExecutionSpec's check.
            check_positive("generation.chunk", self.chunk)
        ExecutionSpec(workers=self.workers, backend=self.backend)
        if self.seed is not None:
            check_integer("generation.seed", self.seed, minimum=0)


@dataclass(frozen=True)
class AnomalySpec:
    """Anomaly injected into the synthesized trace (flood or outage)."""

    kind: str = "flood"
    start: float = 40.0
    duration: float = 20.0
    rate_bytes_per_s: float = 250e3
    packet_size: int = 60
    drop_fraction: float = 0.9

    def __post_init__(self) -> None:
        _check_choice("anomaly.kind", self.kind, ("flood", "outage"))
        if float(self.start) < 0.0:
            raise ParameterError(
                f"anomaly.start must be >= 0, got {self.start!r}"
            )
        check_positive("anomaly.duration", self.duration)
        if self.kind == "flood":
            check_positive("anomaly.rate_bytes_per_s", self.rate_bytes_per_s)
            if int(self.packet_size) < 1:
                raise ParameterError(
                    f"anomaly.packet_size must be >= 1, got {self.packet_size!r}"
                )
        else:
            if not 0.0 < float(self.drop_fraction) <= 1.0:
                raise ParameterError(
                    "anomaly.drop_fraction must lie in (0, 1], got "
                    f"{self.drop_fraction!r}"
                )


@dataclass(frozen=True)
class ValidationSpec:
    """What the final stage checks and reports."""

    epsilon: float = 0.01
    cov_band: float = 0.20
    max_lag: int = 25
    qq_points: int = 50
    detect_anomalies: bool = False
    threshold_sigma: float = 3.0
    min_run: int = 3

    def __post_init__(self) -> None:
        if not 0.0 < float(self.epsilon) < 1.0:
            raise ParameterError(
                f"validation.epsilon must lie in (0, 1), got {self.epsilon!r}"
            )
        check_positive("validation.cov_band", self.cov_band)
        if int(self.max_lag) < 1:
            raise ParameterError(
                f"validation.max_lag must be >= 1, got {self.max_lag!r}"
            )
        if int(self.qq_points) < 10:
            raise ParameterError(
                f"validation.qq_points must be >= 10, got {self.qq_points!r}"
            )
        check_positive("validation.threshold_sigma", self.threshold_sigma)
        if int(self.min_run) < 1:
            raise ParameterError(
                f"validation.min_run must be >= 1, got {self.min_run!r}"
            )


def _freeze_spec_list(spec, name: str, cls, *, path: str) -> None:
    """Normalise a list field of nested specs (dicts are decoded)."""
    entries = []
    for i, value in enumerate(getattr(spec, name)):
        if isinstance(value, dict):
            value = _spec_from_dict(cls, value, path=f"{path}[{i}]")
        elif not isinstance(value, cls):
            raise ParameterError(
                f"{path}[{i}] must be a {cls.__name__} (or a JSON object), "
                f"got {type(value).__name__}"
            )
        entries.append(value)
    object.__setattr__(spec, name, tuple(entries))


@dataclass(frozen=True)
class TopologyLinkSpec:
    """One link of a spec-declared topology."""

    a: str
    b: str
    capacity_bps: float
    weight: float = 1.0
    bidirectional: bool = True

    def __post_init__(self) -> None:
        check_positive("network.topology.links[].capacity_bps", self.capacity_bps)
        check_positive("network.topology.links[].weight", self.weight)
        if str(self.a) == str(self.b):
            raise ParameterError(
                f"topology link endpoints must differ, got {self.a!r}"
            )


#: Named topology presets (see :mod:`repro.network.topology`).
_TOPOLOGY_PRESETS = ("abilene", "parallel-paths", "line")


@dataclass(frozen=True)
class TopologySpec:
    """A topology preset name, or explicit routers + links.

    ``preset`` is one of ``abilene`` (11-PoP research backbone),
    ``parallel-paths`` (``size`` equal-cost two-hop paths) or ``line``
    (a ``size``-router chain); ``capacity_bps`` scales preset links.
    Alternatively declare ``links`` (and optionally isolated
    ``routers``) explicitly.
    """

    preset: str | None = None
    size: int = 2
    capacity_bps: float | None = None
    routers: tuple[str, ...] = ()
    links: tuple[TopologyLinkSpec, ...] = ()

    def __post_init__(self) -> None:
        _freeze_spec_list(
            self, "links", TopologyLinkSpec, path="network.topology.links"
        )
        object.__setattr__(
            self, "routers", tuple(str(r) for r in self.routers)
        )
        if (self.preset is None) == (not self.links):
            raise ParameterError(
                "network.topology needs exactly one of 'preset' "
                f"({', '.join(_TOPOLOGY_PRESETS)}) or explicit 'links'"
            )
        if self.preset is not None:
            _check_choice(
                "network.topology.preset", self.preset, _TOPOLOGY_PRESETS
            )
        minimum = 2 if self.preset == "line" else 1
        if int(self.size) < minimum:
            raise ParameterError(
                f"network.topology.size must be >= {minimum} for preset "
                f"{self.preset or 'links'!r}, got {self.size!r}"
            )
        if self.capacity_bps is not None:
            check_positive("network.topology.capacity_bps", self.capacity_bps)

    def build(self):
        """Materialise the :class:`~repro.network.Topology`."""
        from ..network import topology as topo

        if self.preset is not None:
            kwargs = {}
            if self.capacity_bps is not None:
                kwargs["capacity_bps"] = float(self.capacity_bps)
            if self.preset == "abilene":
                return topo.abilene(**kwargs)
            if self.preset == "parallel-paths":
                return topo.parallel_paths(int(self.size), **kwargs)
            return topo.line(int(self.size), **kwargs)
        built = topo.Topology()
        for router in self.routers:
            built.add_router(router)
        for link in self.links:
            built.add_link(
                link.a,
                link.b,
                capacity_bps=float(link.capacity_bps),
                weight=float(link.weight),
                bidirectional=bool(link.bidirectional),
            )
        return built


@dataclass(frozen=True)
class DemandSpec:
    """One OD demand: endpoints plus a Table I preset or a custom rate.

    The demand's flow population reuses the :class:`WorkloadSpec`
    machinery (preset/scale/rate); its duration comes from the
    enclosing :class:`NetworkSpec`.  (The engine tiles every demand's
    destination block by position, so default-sized populations draw
    from disjoint destination blocks.)
    """

    source: str
    sink: str
    preset: str | None = None
    target_mean_rate_bps: float | None = None
    scale: float = DEFAULT_SCALE
    name: str = ""
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "source", str(self.source))
        object.__setattr__(self, "sink", str(self.sink))
        if self.source == self.sink:
            raise ParameterError(
                f"demand source and sink must differ, got {self.source!r}"
            )
        if (self.preset is None) == (self.target_mean_rate_bps is None):
            raise ParameterError(
                "each network demand needs exactly one of 'preset' or "
                "'target_mean_rate_bps'"
            )
        if self.preset is not None:
            resolve_preset(self.preset)
        else:
            check_positive(
                "network.demands[].target_mean_rate_bps",
                self.target_mean_rate_bps,
            )
        check_positive("network.demands[].scale", self.scale)
        if self.seed is not None and int(self.seed) < 0:
            raise ParameterError(
                f"network.demands[].seed must be >= 0, got {self.seed!r}"
            )

    def build(self, duration: float):
        """Materialise the :class:`~repro.network.NetworkDemand`.

        Address-block tiling is *not* applied here: the engine tiles
        every demand matrix by position
        (:meth:`~repro.network.DemandMatrix.with_tiled_addresses`), so
        spec-built and directly-built matrices share one mechanism.
        """
        from ..network.demands import NetworkDemand

        workload_spec = WorkloadSpec(
            preset=self.preset,
            target_mean_rate_bps=self.target_mean_rate_bps,
            scale=self.scale,
            duration=float(duration),
            name=self.name or f"{self.source}->{self.sink}",
        )
        return NetworkDemand(
            source=self.source,
            sink=self.sink,
            workload=workload_spec.build(),
            seed=self.seed,
        )


@dataclass(frozen=True)
class NetworkEventSpec:
    """A dynamic event: a link outage or a demand flash crowd."""

    kind: str
    start: float
    duration: float
    link: tuple[str, str] | None = None  # outage
    demand: int = 0  # flash_crowd: demand index
    factor: float = 4.0  # flash_crowd: rate multiplier

    def __post_init__(self) -> None:
        _check_choice(
            "network.events[].kind", self.kind, ("outage", "flash_crowd")
        )
        if float(self.start) < 0.0:
            raise ParameterError(
                f"network.events[].start must be >= 0, got {self.start!r}"
            )
        check_positive("network.events[].duration", self.duration)
        if self.kind == "outage":
            if self.link is None or len(self.link) != 2:
                raise ParameterError(
                    "an outage event needs 'link': [a, b]"
                )
            object.__setattr__(
                self, "link", (str(self.link[0]), str(self.link[1]))
            )
        else:
            if int(self.demand) < 0:
                raise ParameterError(
                    f"network.events[].demand must be >= 0, got {self.demand!r}"
                )
            check_positive("network.events[].factor", self.factor)

    def build(self):
        from ..network.events import FlashCrowd, LinkOutage

        if self.kind == "outage":
            return LinkOutage(
                link=self.link,
                start=float(self.start),
                duration=float(self.duration),
            )
        return FlashCrowd(
            demand=int(self.demand),
            start=float(self.start),
            duration=float(self.duration),
            factor=float(self.factor),
        )


@dataclass(frozen=True)
class NetworkSpec:
    """A whole-backbone simulation: topology, demands, routing, events.

    Per-link flow accounting, estimation delta and validation knobs come
    from the enclosing scenario's ``flows``/``estimation``/``validation``
    sections, so single-link and network scenarios share one vocabulary.
    ``execution`` is strategy only (workers = lanes of the engine's
    pool and arrival cells per window, chunk = packets per per-class
    measurement step, held across windows until full); results are
    bitwise invariant to it.
    """

    topology: TopologySpec = field(
        default_factory=lambda: TopologySpec(preset="line")
    )
    demands: tuple[DemandSpec, ...] = ()
    routing: str = "ecmp"
    duration: float = 60.0
    events: tuple[NetworkEventSpec, ...] = ()
    execution: ExecutionSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "execution",
            _section_execution("network", self.execution),
        )
        _freeze_spec_list(
            self, "demands", DemandSpec, path="network.demands"
        )
        _freeze_spec_list(
            self, "events", NetworkEventSpec, path="network.events"
        )
        if not self.demands:
            raise ParameterError(
                "network needs at least one entry in 'demands'"
            )
        _check_choice(
            "network.routing", self.routing, ("shortest_path", "ecmp")
        )
        check_positive("network.duration", self.duration)
        for event in self.events:
            if (
                event.kind == "flash_crowd"
                and int(event.demand) >= len(self.demands)
            ):
                raise ParameterError(
                    f"network event targets demand {event.demand}, but only "
                    f"{len(self.demands)} demands are declared"
                )

    def build(self):
        """``(topology, demand_matrix, events)`` ready for the engine."""
        from ..network.demands import DemandMatrix

        topology = self.topology.build()
        demands = DemandMatrix(
            spec.build(self.duration) for spec in self.demands
        )
        demands.validate_endpoints(topology)
        events = tuple(event.build() for event in self.events)
        return topology, demands, events


# (list-valued sections — topology links, demands, events — are decoded
# by _freeze_spec_list in their owners' __post_init__, not _NESTED)
_alias_execution(NetworkSpec)
_register_nested("NetworkSpec", "topology", TopologySpec)
_register_nested("NetworkSpec", "execution", ExecutionSpec)


#: Routing policies a sweep may range over (the ``network.routing`` set).
_ROUTING_CHOICES = ("shortest_path", "ecmp")


@dataclass(frozen=True)
class SweepSpec:
    """A capacity-planning sweep over a base ``network`` scenario.

    The sweep expands a cartesian product of axes into concrete
    per-cell scenarios: ``demand_factors`` scale every demand's arrival
    rate (aggregation smoothing keeps the per-flow laws), ``failures``
    auto-enumerates :class:`~repro.network.events.LinkOutage` sets from
    the topology's physical fibres (``"none"``, every ``"single"``
    fibre, or singles plus all ``"dual"`` pairs), and ``routing``
    optionally ranges over routing policies (empty = inherit the
    network section's policy).

    Every cell first gets the closed-form
    :func:`~repro.network.analytic.superpose_link_moments` assessment;
    full :class:`~repro.network.NetworkEngine` simulation is dispatched
    only on cells whose worst analytic link ratio — required capacity
    over ``sla_utilization`` × capacity — lands inside the marginal
    band ``[1 - margin, 1 + margin]`` (``simulate: "all"``/``"none"``
    override the band for ground-truth and enumeration-only runs).
    The simulated cells share one network-engine pass whose pool
    ``execution`` sets; per-cell results are bitwise equal to running
    the cell's spec directly, for any ``execution`` setting.
    """

    demand_factors: tuple[float, ...] = (1.0, 1.5, 2.0)
    failures: str = "single"
    include_baseline: bool = True
    routing: tuple[str, ...] = ()
    sla_utilization: float = 1.0
    margin: float = 0.25
    simulate: str = "marginal"
    shape_factor: float = 1.8
    execution: ExecutionSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "execution",
            _section_execution("sweep", self.execution),
        )
        _freeze_tuple(self, "demand_factors")
        if not self.demand_factors:
            raise ParameterError(
                "sweep.demand_factors must name at least one scaling factor"
            )
        for factor in self.demand_factors:
            if not np.isfinite(factor) or factor <= 0.0:
                raise ParameterError(
                    f"sweep.demand_factors entries must be finite and > 0, "
                    f"got {factor!r}"
                )
        _check_choice(
            "sweep.failures", self.failures, ("none", "single", "dual")
        )
        object.__setattr__(
            self, "routing", tuple(str(r) for r in self.routing)
        )
        for policy in self.routing:
            _check_choice("sweep.routing[]", policy, _ROUTING_CHOICES)
        check_positive("sweep.sla_utilization", self.sla_utilization)
        if not 0.0 <= float(self.margin) < 1.0:
            raise ParameterError(
                f"sweep.margin must lie in [0, 1), got {self.margin!r}"
            )
        _check_choice(
            "sweep.simulate", self.simulate, ("marginal", "all", "none")
        )
        check_positive("sweep.shape_factor", self.shape_factor)
        if self.failures == "none" and not self.include_baseline:
            raise ParameterError(
                "sweep with failures='none' and include_baseline=false "
                "would enumerate zero cells"
            )


_alias_execution(SweepSpec)
_register_nested("SweepSpec", "execution", ExecutionSpec)


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative synthesize → measure → fit → generate → validate run.

    ``workload`` may be ``None`` only when the pipeline is run on an
    externally provided trace (``run_scenario(spec, trace=...)``);
    ``generation: null`` in JSON skips the generation stage.
    """

    name: str
    description: str = ""
    seed: int = 0
    workload: WorkloadSpec | None = None
    ingest: IngestSpec | None = None
    network: NetworkSpec | None = None
    sweep: SweepSpec | None = None
    flows: FlowAccountingSpec = field(default_factory=FlowAccountingSpec)
    synthesis: SynthesisSpec = field(default_factory=SynthesisSpec)
    measurement: MeasurementSpec = field(default_factory=MeasurementSpec)
    estimation: EstimationSpec = field(default_factory=EstimationSpec)
    fit: FitSpec = field(default_factory=FitSpec)
    calibration: CalibrationSpec | None = None
    generation: GenerationSpec | None = field(default_factory=GenerationSpec)
    anomaly: AnomalySpec | None = None
    validation: ValidationSpec = field(default_factory=ValidationSpec)

    def __post_init__(self) -> None:
        if not str(self.name).strip():
            raise ParameterError("scenario name must be a non-empty string")
        check_integer("seed", self.seed, minimum=0)
        if self.network is not None and self.workload is not None:
            raise ParameterError(
                "a scenario is either single-link ('workload') or "
                "network-wide ('network'), not both"
            )
        if self.ingest is not None and self.workload is not None:
            raise ParameterError(
                "a scenario either synthesizes traffic ('workload') or "
                "imports real telemetry ('ingest'), not both"
            )
        if self.ingest is not None and self.network is not None:
            raise ParameterError(
                "ingest scenarios fit one link's telemetry; 'ingest' and "
                "'network' cannot be combined"
            )
        if self.ingest is not None and self.anomaly is not None:
            raise ParameterError(
                "anomaly injection perturbs synthesized traffic; it cannot "
                "be applied to imported telemetry ('ingest')"
            )
        if self.network is not None and self.anomaly is not None:
            raise ParameterError(
                "network scenarios express anomalies as network events "
                "(outage / flash_crowd), not an 'anomaly' section"
            )
        if self.anomaly is not None and self.workload is None:
            raise ParameterError(
                "anomaly injection needs a synthesized workload; give the "
                "spec a 'workload' section"
            )
        if self.sweep is not None and self.network is None:
            raise ParameterError(
                "a 'sweep' section scales and fails a base network "
                "scenario; give the spec a 'network' section"
            )
        if self.calibration is not None and self.network is not None:
            raise ParameterError(
                "calibration fits one link's flow population; "
                "'calibration' and 'network' cannot be combined"
            )
        if (
            self.calibration is not None
            and self.calibration.powers is not None
            and self.fit.powers != FitSpec().powers
            and tuple(self.calibration.powers) != tuple(self.fit.powers)
        ):
            raise ParameterError(
                "fit.powers and calibration.powers contradict each other "
                f"({tuple(self.fit.powers)} vs "
                f"{tuple(self.calibration.powers)}); set the shot powers in "
                "one section (calibration.powers defaults to fit.powers — "
                "see MIGRATION.md)"
            )

    @property
    def family(self) -> str:
        """``"sweep"``, ``"network"``, ``"real-trace-fit"`` or ``"single-link"``."""
        if self.sweep is not None:
            return "sweep"
        if self.network is not None:
            return "network"
        return "real-trace-fit" if self.ingest is not None else "single-link"

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        """Plain JSON-safe dict; ``from_dict`` inverts it exactly."""
        return _to_jsonable(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Strict inverse of :meth:`to_dict` (unknown keys are errors)."""
        return _spec_from_dict(cls, data, path="spec")

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"spec is not valid JSON: {exc}") from None
        return _spec_from_dict(cls, data, path="spec")

    def to_file(self, path) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def from_file(cls, path) -> "ScenarioSpec":
        path = Path(path)
        if not path.is_file():
            raise ParameterError(
                f"spec file {path} does not exist or is not a regular file"
            )
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ParameterError(f"spec is not valid JSON: {exc}") from None
        return _spec_from_dict(cls, data, path="spec")

    # -- convenience -----------------------------------------------------

    def with_overrides(self, **changes) -> "ScenarioSpec":
        """A copy with top-level fields replaced (dicts are decoded)."""
        decoded = {}
        for key, value in changes.items():
            nested = _NESTED.get(("ScenarioSpec", key))
            if nested is not None and isinstance(value, dict):
                value = _spec_from_dict(nested, value, path=f"spec.{key}")
            decoded[key] = value
        return dataclasses.replace(self, **decoded)


for _name, _type in (
    ("workload", WorkloadSpec),
    ("ingest", IngestSpec),
    ("network", NetworkSpec),
    ("sweep", SweepSpec),
    ("flows", FlowAccountingSpec),
    ("synthesis", SynthesisSpec),
    ("measurement", MeasurementSpec),
    ("estimation", EstimationSpec),
    ("fit", FitSpec),
    ("calibration", CalibrationSpec),
    ("generation", GenerationSpec),
    ("anomaly", AnomalySpec),
    ("validation", ValidationSpec),
):
    _register_nested("ScenarioSpec", _name, _type)
