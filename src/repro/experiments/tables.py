"""Data builders for the paper's tables.

Table I (the trace summary) and Table II (prediction errors) in the same
shape the paper prints them, from synthetic workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.model import PoissonShotNoiseModel
from ..core.shots import TriangularShot
from ..measurement.engine import MeasurementEngine
from ..netsim.workloads import LinkWorkload, table_i_workloads
from ..prediction.evaluation import Table2Row, compare_predictors
from .harness import DELTA, SCALED_TIMEOUT

__all__ = ["Table1Row", "build_table1", "build_table2"]


@dataclass(frozen=True)
class Table1Row:
    """One row of the reproduced Table I."""

    date: str
    length_seconds: float
    target_mbps: float
    measured_mbps: float
    n_packets: int
    utilization: float

    @property
    def relative_error(self) -> float:
        return self.measured_mbps / self.target_mbps - 1.0


def build_table1(
    workloads: list[LinkWorkload] | None = None, *, seed: int = 0
) -> list[Table1Row]:
    """Synthesise each Table I link once and summarise it, paper-style."""
    if workloads is None:
        workloads = table_i_workloads()
    rows = []
    for workload in workloads:
        trace = workload.synthesize(seed=seed).trace
        rows.append(
            Table1Row(
                date=workload.name,
                length_seconds=trace.duration,
                target_mbps=workload.target_mean_rate_bps / 1e6,
                measured_mbps=trace.mean_rate_bps / 1e6,
                n_packets=len(trace),
                utilization=trace.utilization,
            )
        )
    return rows


def build_table2(
    workload: LinkWorkload,
    *,
    seed: int = 0,
    prediction_intervals=(1.0, 2.0, 4.0, 8.0, 16.0),
    base_delta: float = DELTA,
    timeout: float = SCALED_TIMEOUT,
    max_order: int = 8,
    shot=None,
) -> list[Table2Row]:
    """Reproduce Table II on one synthetic interval.

    The paper's horizons {2, 5, 10, 30, 60} s on a 30-minute interval
    scale to roughly {1, 2, 4, 8, 16} s on our 120 s-class intervals (the
    ratio horizon/interval is what matters for sample scarcity).

    The model-based predictor uses triangular shots, as in the paper's
    prediction experiment.
    """
    synthesis = workload.synthesize(seed=seed)
    trace = synthesis.trace
    measured = MeasurementEngine().measure_trace(
        trace, delta=base_delta, key="five_tuple", timeout=timeout
    )
    flows, base = measured.flows, measured.series
    model = PoissonShotNoiseModel.from_flows(
        flows.sizes, flows.durations, trace.duration, shot or TriangularShot()
    )
    series_by_interval = {}
    for theta in prediction_intervals:
        factor = int(round(theta / base_delta))
        if factor < 1:
            continue
        series = base.resample(factor)
        if len(series) < 6:
            continue  # too few samples even for order 1 + evaluation
        series_by_interval[float(factor * base_delta)] = series
    return compare_predictors(series_by_interval, model, max_order=max_order)
