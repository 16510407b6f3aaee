"""Unified scenario/pipeline API — the declarative front door.

The paper's whole argument is a pipeline: measure a backbone link, reduce
it to the three-parameter summary (``lambda``, ``E[S]``, ``E[S^2/D]``),
fit a shot, then predict/provision/generate (sections V-VII).  This
package makes that pipeline a first-class object:

* :class:`ScenarioSpec` — a frozen, JSON-round-trippable description of
  one end-to-end experiment (workload, flow accounting, estimation, fit,
  generation, validation — plus arrival ramps and anomaly injection);
* :class:`~repro.pipeline.stages.Stage` — the protocol behind the
  built-in ``Synthesize → AccountFlows → Estimate → FitModel → Generate →
  Validate`` chain, each stage producing a typed result object;
* :func:`run_scenario` / :func:`run_scenarios` — the runner, fanning
  scenario lists out over the generation engine's worker pool;
* :class:`ScenarioRegistry` / :func:`default_registry` — named scenarios:
  the Table I presets plus multi-class, diurnal-ramp, session and
  anomaly-injection families.

Quickstart::

    from repro.pipeline import default_registry, run_scenario

    result = run_scenario(default_registry().get("medium"))
    print(result.validation.to_dict())
"""

from .registry import ScenarioRegistry, default_registry
from .runner import (
    DEFAULT_STAGES,
    INGEST_STAGES,
    MEASUREMENT_STAGES,
    NETWORK_STAGES,
    SWEEP_STAGES,
    QUICK_MODE_ENV,
    ScenarioResult,
    ScenarioRunner,
    apply_quick_mode,
    run_scenario,
    run_scenarios,
)
from .spec import (
    AnomalySpec,
    ArrivalSpec,
    CALIBRATION_FAMILIES,
    CalibrationSpec,
    DemandSpec,
    EstimationSpec,
    ExecutionSpec,
    FitSpec,
    FlowAccountingSpec,
    GenerationSpec,
    INGEST_FORMATS,
    IngestSpec,
    MeasurementSpec,
    NetworkEventSpec,
    NetworkSpec,
    PRESET_ALIASES,
    RetryPolicy,
    ScenarioSpec,
    SELECTION_CRITERIA,
    SizeDistributionSpec,
    SweepSpec,
    SynthesisSpec,
    TopologyLinkSpec,
    TopologySpec,
    ValidationSpec,
    WorkloadSpec,
    resolve_preset,
)
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
    TraceMeta,
    Validate,
    ValidationReport,
)

__all__ = [
    # spec layer
    "ScenarioSpec",
    "WorkloadSpec",
    "ArrivalSpec",
    "ExecutionSpec",
    "RetryPolicy",
    "FlowAccountingSpec",
    "IngestSpec",
    "INGEST_FORMATS",
    "CalibrationSpec",
    "CALIBRATION_FAMILIES",
    "SELECTION_CRITERIA",
    "SizeDistributionSpec",
    "SynthesisSpec",
    "MeasurementSpec",
    "EstimationSpec",
    "FitSpec",
    "GenerationSpec",
    "AnomalySpec",
    "ValidationSpec",
    "TopologySpec",
    "TopologyLinkSpec",
    "DemandSpec",
    "NetworkEventSpec",
    "NetworkSpec",
    "SweepSpec",
    "PRESET_ALIASES",
    "resolve_preset",
    # stages
    "Stage",
    "PipelineContext",
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
    "SynthesisResult",
    "TraceMeta",
    "IngestResult",
    "AccountingResult",
    "CalibrationResult",
    "EstimationResult",
    "FitResult",
    "GenerationResult",
    "NetworkStageResult",
    "SweepStageResult",
    "ValidationReport",
    # runner
    "ScenarioRunner",
    "ScenarioResult",
    "DEFAULT_STAGES",
    "MEASUREMENT_STAGES",
    "INGEST_STAGES",
    "NETWORK_STAGES",
    "SWEEP_STAGES",
    "QUICK_MODE_ENV",
    "apply_quick_mode",
    "run_scenario",
    "run_scenarios",
    # registry
    "ScenarioRegistry",
    "default_registry",
]
