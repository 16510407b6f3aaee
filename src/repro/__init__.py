"""repro — full reproduction of Barakat et al., "A flow-based model for
Internet backbone traffic" (IMC 2002).

The package models the aggregate rate of an uncongested IP backbone link as
a Poisson shot-noise process driven by flow-level statistics, and rebuilds
every substrate the paper's evaluation depends on: a synthetic backbone
packet-trace generator, NetFlow-style flow accounting, rate measurement,
linear prediction and network-engineering applications.

Quickstart::

    import repro

    trace = repro.netsim.workloads.medium_utilization_link(seed=1).synthesize()
    flows = repro.flows.export_five_tuple_flows(trace.packets)
    model = repro.PoissonShotNoiseModel.from_flows(
        [f.size_bytes for f in flows], [f.duration for f in flows],
        interval_length=trace.duration, shot=repro.ParabolicShot(),
    )
    print(model.mean, model.coefficient_of_variation)

Subpackages
-----------
pipeline
    The declarative scenario pipeline: specs, stages, runner, registry —
    the canonical public API (``repro.run_scenario``).
core
    The shot-noise model: Theorems 1-3, Corollaries 1-3, fitting, Gaussian
    approximation (the paper's primary contribution).
trace
    Binary packet-record format + reader/writer (the measurement substrate).
flows
    Flow classification and NetFlow-like accounting (5-tuple, /24 prefix).
netsim
    Synthetic backbone-link workload generator (the Sprint-trace stand-in).
stats
    Rate time series, autocorrelations, qq-plots, heavy tails, EWMA.
prediction
    Section VII-B linear (moving-average) rate predictors.
generation
    Section VII-C shot-noise traffic generation (the generation engine).
measurement
    Streaming, sharded measurement engine: out-of-core flow accounting
    and rate measurement, chunk/worker invariant.
applications
    Section VII-A dimensioning and anomaly detection.
network
    Backbone topologies: per-link simulation and the edge-statistics +
    routing moment sums of sections VI-A/VII-A.
baselines
    Related-work comparison models ([3] M/G/infinity, ON/OFF, Poisson pkt).

Subpackages and the re-exported names load on first access (PEP 562), so
``import repro`` costs only what a command goes on to use; the
exceptions are imported eagerly.
"""

import importlib

from .exceptions import (
    FittingError,
    FlowExportError,
    ModelError,
    ParameterError,
    PredictionError,
    ReproError,
    TopologyError,
    TraceFormatError,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "core",
    "trace",
    "flows",
    "netsim",
    "stats",
    "prediction",
    "generation",
    "measurement",
    "network",
    "synthesis",
    "applications",
    "baselines",
    "experiments",
    "pipeline",
    # re-exported pipeline API
    "ScenarioSpec",
    "ScenarioResult",
    "ScenarioRegistry",
    "default_registry",
    "run_scenario",
    "run_scenarios",
    # re-exported core API
    "PoissonShotNoiseModel",
    "ThreeParameterModel",
    "SuperposedModel",
    "FlowStatistics",
    "GaussianApproximation",
    "MGInfinityModel",
    "EmpiricalEnsemble",
    "MonteCarloEnsemble",
    "SizeRateEnsemble",
    "PowerShot",
    "RectangularShot",
    "TriangularShot",
    "ParabolicShot",
    "GenericShot",
    "PowerFit",
    "variance_shape_factor",
    "solve_power",
    "fit_power_from_variance",
    "fit_power_from_cov",
    "fit_power_averaged",
    "normal_quantile",
    # exceptions
    "ReproError",
    "ParameterError",
    "FittingError",
    "TraceFormatError",
    "FlowExportError",
    "ModelError",
    "PredictionError",
    "TopologyError",
]

#: Submodules loaded on first attribute access: every subpackage, and
#: the top-level modules an eager ``import repro`` made reachable.
_SUBMODULES = frozenset({
    "applications", "baselines", "calibration", "checkpoint", "core",
    "execution", "experiments", "faults", "flows", "generation",
    "interop", "kernels", "measurement", "netsim", "network", "pipeline",
    "prediction", "stats", "sweep", "synthesis", "trace",
})

#: The re-exported names, by the subpackage that defines them.
_REEXPORTS = {
    **dict.fromkeys(
        (
            "ScenarioSpec", "ScenarioResult", "ScenarioRegistry",
            "default_registry", "run_scenario", "run_scenarios",
        ),
        "pipeline",
    ),
    **dict.fromkeys(
        (
            "PoissonShotNoiseModel", "ThreeParameterModel",
            "SuperposedModel", "FlowStatistics", "GaussianApproximation",
            "MGInfinityModel", "EmpiricalEnsemble", "MonteCarloEnsemble",
            "SizeRateEnsemble", "PowerShot", "RectangularShot",
            "TriangularShot", "ParabolicShot", "GenericShot", "PowerFit",
            "variance_shape_factor", "solve_power",
            "fit_power_from_variance", "fit_power_from_cov",
            "fit_power_averaged", "normal_quantile",
        ),
        "core",
    ),
}


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _REEXPORTS:
        module = importlib.import_module(f"{__name__}.{_REEXPORTS[name]}")
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SUBMODULES | set(_REEXPORTS))
