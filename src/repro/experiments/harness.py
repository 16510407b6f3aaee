"""Shared experiment pipeline: synthesise -> measure -> model -> compare.

Every validation experiment in the paper follows the same loop (section
VI): take one measurement interval, export flows under one of the two
definitions, measure the coefficient of variation of the 200 ms-averaged
rate, parameterise the model from the flow statistics, and compare.  The
loop itself now lives in the scenario pipeline
(:mod:`repro.pipeline`); this module adapts pipeline results into the
:class:`IntervalMeasurement` scatter points the per-figure benchmarks
consume.

Scaled constants
----------------
The paper's quantities and our scaled equivalents (DESIGN.md section 2):

====================  ==============  =====================
quantity              paper           here (scale 1/32-ish)
====================  ==============  =====================
analysis interval     30 min          120 s
averaging Delta       200 ms          200 ms
flow idle timeout     60 s            8 s
link                  OC-12 622 Mb/s  19.4 Mb/s
====================  ==============  =====================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.parameters import FlowStatistics
from ..execution import make_pool
from ..netsim.workloads import DEFAULT_SCALE, LinkWorkload, table_i_workloads
from ..pipeline.runner import ScenarioResult, ScenarioRunner
from ..pipeline.spec import (
    EstimationSpec,
    FitSpec,
    FlowAccountingSpec,
    ScenarioSpec,
)
from ..pipeline.stages import AccountFlows, Estimate, FitModel, Synthesize

__all__ = [
    "DELTA",
    "SCALED_TIMEOUT",
    "SCALED_INTERVAL",
    "IntervalMeasurement",
    "measurement_from_result",
    "cov_validation_points",
    "utilization_class",
    "validation_workloads",
]

#: Averaging/sampling interval for the measured rate (paper: 200 ms).
DELTA = 0.2

#: Flow idle timeout scaled to our 120 s intervals (paper: 60 s / 30 min).
SCALED_TIMEOUT = 8.0

#: Analysis interval (paper: 30 minutes).
SCALED_INTERVAL = 120.0


@dataclass(frozen=True)
class IntervalMeasurement:
    """One point of the Figures 9-13 scatter plots."""

    workload: str
    seed: int
    flow_kind: str  # "five_tuple" or "prefix"
    utilization: float
    mean_rate_bps: float
    n_flows: int
    statistics: FlowStatistics
    measured_cov: float
    measured_variance: float
    model_cov: dict[float, float] = field(default_factory=dict)  # power -> CoV
    fitted_power: float = float("nan")
    fitted_kappa: float = float("nan")

    def relative_error(self, power: float) -> float:
        """(model - measured)/measured for the given shot power."""
        return self.model_cov[power] / self.measured_cov - 1.0

    def within_band(self, power: float, band: float = 0.20) -> bool:
        """Inside the paper's +-20% dashed lines?"""
        return abs(self.relative_error(power)) <= band

    @property
    def utilization_class(self) -> str:
        return utilization_class(self.mean_rate_bps)


def utilization_class(
    mean_rate_bps: float, *, scale: float = DEFAULT_SCALE
) -> str:
    """The paper's three marker classes: <50, 50-125, >125 Mbps (scaled).

    Figures 9-13 mark intervals by average rate: crosses below 50 Mbps,
    triangles between 50 and 125 Mbps, dots above 125 Mbps.
    """
    low_edge = 50e6 * scale
    high_edge = 125e6 * scale
    if mean_rate_bps < low_edge:
        return "low"
    if mean_rate_bps < high_edge:
        return "medium"
    return "high"


#: The measurement stage chain behind :func:`cov_validation_points` — no
#: generation, no validation report, exactly the section VI loop.
_MEASURE_STAGES = (Synthesize(), AccountFlows(), Estimate(), FitModel())


def _measurement_spec(
    *, name: str, flow_kind: str, delta: float, timeout: float, powers
) -> ScenarioSpec:
    return ScenarioSpec(
        name=name or "interval",
        workload=None,
        flows=FlowAccountingSpec(kind=flow_kind, timeout=timeout),
        estimation=EstimationSpec(delta=delta),
        fit=FitSpec(powers=tuple(float(b) for b in powers)),
        generation=None,
    )


def measurement_from_result(
    result: ScenarioResult, *, seed: int = -1, workload: str = ""
) -> IntervalMeasurement:
    """Convert a pipeline :class:`ScenarioResult` into a scatter point."""
    trace = result.trace
    fit = result.fit.power_fit
    return IntervalMeasurement(
        workload=workload or trace.name,
        seed=seed,
        flow_kind=result.accounting.flows.key_kind,
        utilization=trace.utilization,
        mean_rate_bps=trace.mean_rate_bps,
        n_flows=len(result.accounting.flows),
        statistics=result.estimation.statistics,
        measured_cov=result.estimation.series.coefficient_of_variation,
        measured_variance=result.estimation.series.variance,
        model_cov=dict(result.fit.model_cov),
        fitted_power=fit.power,
        fitted_kappa=fit.kappa,
    )


def validation_workloads(
    *, interval: float = SCALED_INTERVAL, scale: float = DEFAULT_SCALE
) -> list[LinkWorkload]:
    """The seven Table I links, each cut to one analysis interval."""
    return table_i_workloads(scale=scale, duration=interval)


def cov_validation_points(
    *,
    flow_kind: str = "five_tuple",
    seeds=range(4),
    workloads: list[LinkWorkload] | None = None,
    powers=(0.0, 1.0, 2.0),
    delta: float = DELTA,
    timeout: float = SCALED_TIMEOUT,
    workers: int = 1,
) -> list[IntervalMeasurement]:
    """Produce the scatter points behind Figures 9-13 (pipeline-backed).

    Each (workload, seed) pair is one independent interval; the paper's
    clusters come from the spread of link utilisations in Table I.  Pairs
    fan out over a thread pool of ``workers`` lanes; each carries its own
    seed, so the point list is deterministic regardless of the worker
    count.
    """
    if workloads is None:
        workloads = validation_workloads()

    def one(task):
        workload, seed = task
        spec = _measurement_spec(
            name=workload.name,
            flow_kind=flow_kind,
            delta=delta,
            timeout=timeout,
            powers=powers,
        )
        trace = workload.synthesize(seed=seed).trace
        result = ScenarioRunner(_MEASURE_STAGES).run(spec, trace=trace)
        return measurement_from_result(
            result, seed=int(seed), workload=workload.name
        )

    tasks = [(w, s) for w in workloads for s in seeds]
    with make_pool("thread", int(workers)) as pool:
        return pool.map_ordered(one, tasks)
