"""Experiment harness shared by the benchmarks and examples."""

from .figures import (
    fig1_flow_splitting,
    fig2_shot_construction,
    fig3_4_interarrivals,
    fig5_6_sequence_correlation,
    fig7_shot_shapes,
    fig8_rate_autocorrelation,
    fig9_13_scatter,
    fig11_power_histogram,
)
from .harness import (
    DELTA,
    SCALED_INTERVAL,
    SCALED_TIMEOUT,
    IntervalMeasurement,
    cov_validation_points,
    measurement_from_result,
    utilization_class,
    validation_workloads,
)
from .tables import Table1Row, build_table1, build_table2

__all__ = [
    "DELTA",
    "SCALED_TIMEOUT",
    "SCALED_INTERVAL",
    "IntervalMeasurement",
    "cov_validation_points",
    "measurement_from_result",
    "utilization_class",
    "validation_workloads",
    "fig1_flow_splitting",
    "fig2_shot_construction",
    "fig3_4_interarrivals",
    "fig5_6_sequence_correlation",
    "fig7_shot_shapes",
    "fig8_rate_autocorrelation",
    "fig9_13_scatter",
    "fig11_power_histogram",
    "Table1Row",
    "build_table1",
    "build_table2",
]
