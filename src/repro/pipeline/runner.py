"""Scenario runner: compose stages, run specs, fan out over the engine.

:func:`run_scenario` is the canonical single-scenario entry point;
:func:`run_scenarios` runs many specs in parallel on the generation
engine's worker pool (each spec carries its own seed, so the result list
is deterministic for any ``workers``).  The default stage chain is the
paper's full loop; pass a custom ``stages`` tuple to run a prefix (e.g.
measurement only) or to splice in project-specific stages.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from ..exceptions import ParameterError
from ..execution import make_pool
from ..trace.packet import PacketTrace
from .spec import ScenarioSpec
from .stages import (
    AccountFlows,
    AccountingResult,
    Calibrate,
    CalibrationResult,
    Estimate,
    EstimationResult,
    FitModel,
    FitResult,
    Generate,
    GenerationResult,
    ImportFlows,
    IngestResult,
    NetworkStageResult,
    PipelineContext,
    RunSweep,
    SimulateNetwork,
    Stage,
    SweepStageResult,
    SynthesisResult,
    Synthesize,
    Validate,
    ValidationReport,
)

__all__ = [
    "DEFAULT_STAGES",
    "MEASUREMENT_STAGES",
    "INGEST_STAGES",
    "NETWORK_STAGES",
    "SWEEP_STAGES",
    "QUICK_MODE_ENV",
    "ScenarioResult",
    "ScenarioRunner",
    "run_scenario",
    "run_scenarios",
    "apply_quick_mode",
]

#: The full synthesize → measure → fit → generate → validate chain.
DEFAULT_STAGES: tuple[Stage, ...] = (
    Synthesize(),
    AccountFlows(),
    Estimate(),
    Calibrate(),
    FitModel(),
    Generate(),
    Validate(),
)

#: The section VI measurement prefix (no generation) — what ``measure``
#: and the experiment harness run.
MEASUREMENT_STAGES: tuple[Stage, ...] = (
    Synthesize(),
    AccountFlows(),
    Estimate(),
    Calibrate(),
    FitModel(),
    Validate(),
)

#: The real-trace-fit chain for specs carrying an ``ingest`` section:
#: imported telemetry streams through the same account → estimate → fit →
#: validate loop the synthetic scenarios use (generation stays available
#: for a model-driven twin of the imported trace).
INGEST_STAGES: tuple[Stage, ...] = (
    ImportFlows(),
    AccountFlows(),
    Estimate(),
    Calibrate(),
    FitModel(),
    Generate(),
    Validate(),
)

#: The whole-backbone chain for specs carrying a ``network`` section:
#: the network engine runs the full per-link loop internally.
NETWORK_STAGES: tuple[Stage, ...] = (SimulateNetwork(),)

#: The capacity-planning chain for specs carrying a ``sweep`` section:
#: the sweep service expands, pre-filters and fans out internally.
SWEEP_STAGES: tuple[Stage, ...] = (RunSweep(),)

#: Environment variable that shrinks scenario horizons for CI smoke runs.
QUICK_MODE_ENV = "REPRO_BENCH_QUICK"

#: Workload/generation horizon cap (seconds) under quick mode.
_QUICK_DURATION = 30.0


@dataclass(frozen=True)
class ScenarioResult:
    """Everything one scenario run produced, stage by stage.

    Single-link runs populate the stage fields; network runs populate
    ``network`` (the per-link simulation bundle + report) and leave the
    single-link stages ``None``.
    """

    spec: ScenarioSpec
    ingest: IngestResult | None = None
    synthesis: SynthesisResult | None = None
    accounting: AccountingResult | None = None
    estimation: EstimationResult | None = None
    calibration: CalibrationResult | None = None
    fit: FitResult | None = None
    validation: ValidationReport | None = None
    generation: GenerationResult | None = None
    network: NetworkStageResult | None = None
    sweep: SweepStageResult | None = None

    @property
    def trace(self) -> PacketTrace | None:
        return self.synthesis.trace if self.synthesis is not None else None

    def report(self) -> dict:
        """JSON-safe report: the spec, per-stage summaries, validation."""
        out = {"spec": self.spec.to_dict()}
        if self.sweep is not None:
            out["sweep"] = self.sweep.summary()
            return out
        if self.network is not None:
            out["network"] = self.network.summary()
            return out
        out["stages"] = {}
        if self.ingest is not None:
            out["stages"]["import_flows"] = self.ingest.summary()
        else:
            out["stages"]["synthesize"] = self.synthesis.summary()
        out["stages"].update(
            {
                "account_flows": self.accounting.summary(),
                "estimate": self.estimation.summary(),
                "fit_model": self.fit.summary(),
            }
        )
        if self.calibration is not None:
            out["stages"]["calibrate"] = self.calibration.summary()
        if self.generation is not None:
            out["stages"]["generate"] = self.generation.summary()
        if self.validation is not None:
            out["validation"] = self.validation.to_dict()
        return out


class ScenarioRunner:
    """Run scenario specs through a (customisable) stage chain.

    With ``stages=None`` the chain is picked per spec:
    :data:`DEFAULT_STAGES` for single-link scenarios,
    :data:`NETWORK_STAGES` for specs carrying a ``network`` section.
    """

    def __init__(self, stages: tuple[Stage, ...] | None = None) -> None:
        self._auto = stages is None
        self.stages: tuple[Stage, ...] = (
            tuple(stages) if stages is not None else DEFAULT_STAGES
        )
        for stage in self.stages:
            if not isinstance(stage, Stage):
                raise ParameterError(
                    f"{stage!r} does not implement the Stage protocol "
                    "(needs a 'name' attribute and a run(context) method)"
                )

    def _stages_for(self, spec: ScenarioSpec) -> tuple[Stage, ...]:
        if self._auto and spec.sweep is not None:
            return SWEEP_STAGES
        if self._auto and spec.network is not None:
            return NETWORK_STAGES
        if self._auto and spec.ingest is not None:
            return INGEST_STAGES
        return self.stages

    def run(
        self,
        spec: ScenarioSpec,
        *,
        trace: PacketTrace | None = None,
        checkpoint_dir=None,
        resume: bool = False,
    ) -> ScenarioResult:
        """Run one scenario; ``trace`` measures an existing capture.

        ``checkpoint_dir``/``resume`` thread through to the engine
        stages (sweep cells, network links) — see
        :mod:`repro.checkpoint`.
        """
        context = PipelineContext(
            spec=spec,
            trace=trace,
            checkpoint_dir=checkpoint_dir,
            resume=bool(resume),
        )
        stages = self._stages_for(spec)
        for stage in stages:
            stage.run(context)
        if context.network is None and context.sweep is None:
            front = "ingest" if context.ingest is not None else "synthesis"
            for required in (front, "accounting", "estimation", "fit"):
                context.require(required, "run_scenario")
        return ScenarioResult(
            spec=spec,
            ingest=context.ingest,
            synthesis=context.synthesis,
            accounting=context.accounting,
            estimation=context.estimation,
            calibration=context.calibration,
            fit=context.fit,
            generation=context.generation,
            network=context.network,
            sweep=context.sweep,
            validation=context.validation,
        )

    def run_many(
        self, specs, *, workers: int = 1
    ) -> list[ScenarioResult]:
        """Run many specs in parallel over a thread pool.

        Each spec carries its own seed, so results are deterministic and
        independent of ``workers``.
        """
        specs = list(specs)
        if not specs:
            raise ParameterError("run_many needs at least one scenario spec")
        with make_pool("thread", int(workers)) as pool:
            return pool.map_ordered(self.run, specs)


def run_scenario(
    spec: ScenarioSpec,
    *,
    trace: PacketTrace | None = None,
    stages: tuple[Stage, ...] | None = None,
    checkpoint_dir=None,
    resume: bool = False,
) -> ScenarioResult:
    """Run one scenario spec end-to-end (the canonical public API)."""
    return ScenarioRunner(stages).run(
        spec, trace=trace, checkpoint_dir=checkpoint_dir, resume=resume
    )


def run_scenarios(
    specs,
    *,
    workers: int = 1,
    stages: tuple[Stage, ...] | None = None,
) -> list[ScenarioResult]:
    """Run many scenario specs, fanned out over ``workers`` threads."""
    return ScenarioRunner(stages).run_many(specs, workers=workers)


def apply_quick_mode(
    spec: ScenarioSpec, *, force: bool | None = None
) -> ScenarioSpec:
    """Cap scenario horizons when ``REPRO_BENCH_QUICK`` is set.

    CI smoke jobs run registry scenarios end-to-end but cannot afford the
    full 120 s intervals; quick mode trims workload and generation
    durations to 30 s without touching any other knob.  ``force`` overrides
    the environment check (True/False); the spec is returned unchanged
    when quick mode is off.
    """
    if force is None:
        # same convention as benchmarks/conftest.py: "" and "0" mean off
        quick = os.environ.get(QUICK_MODE_ENV, "") not in ("", "0")
    else:
        quick = force
    if not quick:
        return spec
    changes = {}
    if spec.workload is not None and spec.workload.duration > _QUICK_DURATION:
        changes["workload"] = replace(
            spec.workload, duration=_QUICK_DURATION
        )
        if spec.anomaly is not None:
            # keep the injected event inside the shortened capture
            start = min(spec.anomaly.start, _QUICK_DURATION / 3.0)
            duration = min(
                spec.anomaly.duration, _QUICK_DURATION - start - 1.0
            )
            changes["anomaly"] = replace(
                spec.anomaly, start=start, duration=duration
            )
    if (
        spec.generation is not None
        and spec.generation.duration is not None
        and spec.generation.duration > _QUICK_DURATION
    ):
        changes["generation"] = replace(
            spec.generation, duration=_QUICK_DURATION
        )
    if spec.network is not None and spec.network.duration > _QUICK_DURATION:
        # keep every event inside the shortened capture, like anomalies
        events = tuple(
            replace(
                event,
                start=min(event.start, _QUICK_DURATION / 3.0),
                duration=min(
                    event.duration,
                    _QUICK_DURATION
                    - min(event.start, _QUICK_DURATION / 3.0)
                    - 1.0,
                ),
            )
            for event in spec.network.events
        )
        changes["network"] = replace(
            spec.network, duration=_QUICK_DURATION, events=events
        )
    return replace(spec, **changes) if changes else spec
