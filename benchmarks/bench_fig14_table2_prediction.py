"""Figure 14 and Table II — prediction of the total rate (section VII-B).

Paper Table II: normalised RMS one-step error (%) and selected order M for
prediction intervals theta of 2-60 s on a 30-minute interval, comparing
the predictor trained on measured rate samples against the one derived
from the model's Theorem 2 autocovariance.  The model-based predictor
matches the empirical one and wins at long horizons where rate samples
run out.

Figure 14: the measured 10 s rate series overlaid with both predictors.

Scaling: our intervals are 120 s (vs 30 min), so the paper's horizons
{2, 5, 10, 30, 60} s map to {1, 2, 4, 8, 16} s (same horizon/interval
ratios; see EXPERIMENTS.md).
"""

from __future__ import annotations

import numpy as np
from conftest import print_header, run_once

from repro.core import PoissonShotNoiseModel, TriangularShot
from repro.experiments import SCALED_TIMEOUT, build_table2
from repro.measurement import MeasurementEngine
from repro.netsim import medium_utilization_link
from repro.prediction import EmpiricalPredictor, ModelBasedPredictor


def test_table2_prediction_errors(benchmark):
    workload = medium_utilization_link(duration=120.0)

    rows = run_once(
        benchmark,
        lambda: build_table2(
            workload,
            seed=3,
            prediction_intervals=(1.0, 2.0, 4.0, 8.0, 16.0),
            max_order=8,
        ),
    )

    print_header("TABLE II - prediction of the total rate (scaled horizons)")
    print(f"{'theta (s)':>10s} {'M emp':>6s} {'err emp':>8s} "
          f"{'M model':>8s} {'err model':>10s}")
    for row in rows:
        print(
            f"{row.sample_interval:10.1f} {row.empirical_order:6d} "
            f"{row.empirical_error:8.2%} {row.model_order:8d} "
            f"{row.model_error:10.2%}"
        )

    assert len(rows) >= 4
    for row in rows:
        # paper errors are ~4-6%; scaled traffic is burstier per sample,
        # so accept the same order of magnitude
        assert row.empirical_error < 0.30
        assert row.model_error < 0.30
        # model-based prediction is competitive (paper's point)
        assert row.model_error < row.empirical_error + 0.05
    # at the longest horizon the model predictor does not lose to the
    # sample-starved empirical one by more than noise
    last = rows[-1]
    assert last.model_error <= last.empirical_error * 1.3


def test_fig14_prediction_time_series(benchmark, reference_trace):
    """Figure 14: both predictors tracking the sampled rate.

    The paper's panel uses theta = 10 s on a 30-minute interval; the same
    horizon/interval ratio on our 120 s interval is theta ~= 0.7 s, so we
    use 1 s samples (120 points, like the paper's 180).
    """
    theta = 1.0

    def build():
        result = MeasurementEngine().measure_trace(
            reference_trace, delta=theta, timeout=SCALED_TIMEOUT
        )
        flows, series = result.flows, result.series
        model = PoissonShotNoiseModel.from_flows(
            flows.sizes, flows.durations, reference_trace.duration,
            TriangularShot(),
        )
        model_pred = ModelBasedPredictor(model, theta, max_order=6)
        emp_pred = EmpiricalPredictor(series, max_order=6)
        return series, model_pred, emp_pred

    series, model_pred, emp_pred = run_once(benchmark, build)

    predictions_model = model_pred.predict_series(series.values)
    predictions_emp = emp_pred.predict_series(series.values)

    print_header(f"FIGURE 14 - rate prediction time series (theta = {theta:g} s)")
    print(f"{'t (s)':>7s} {'measured':>10s} {'model':>10s} {'empirical':>10s}"
          "   (kB/s)")
    offset_m = model_pred.order
    for k in range(0, min(12, predictions_model.size, predictions_emp.size)):
        t = (offset_m + k) * theta
        actual = series.values[offset_m + k]
        print(
            f"{t:7.1f} {actual / 1e3:10.1f} "
            f"{predictions_model[k] / 1e3:10.1f} "
            f"{predictions_emp[min(k, predictions_emp.size - 1)] / 1e3:10.1f}"
        )

    # both predictors track the measured series (correlation, not identity)
    actual_m = series.values[model_pred.order:]
    corr = np.corrcoef(predictions_model, actual_m)[0, 1]
    print(f"  model-prediction correlation with measured series: {corr:.2f}")
    assert corr > 0.2
