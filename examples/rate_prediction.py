#!/usr/bin/env python
"""Short-term rate prediction (paper section VII-B).

An ISP wants to predict the near-future total rate to re-route new flows
before congestion.  Two predictors are compared, as in Table II:

* an empirical Moving Average predictor trained on past rate samples;
* the model-based predictor whose autocorrelation comes from Theorem 2 —
  i.e. from flow statistics alone, with no rate history needed beyond the
  most recent M samples.

The model-based predictor shines at long horizons, where rate samples are
too few to estimate the autocorrelation reliably.

Run:  python examples/rate_prediction.py
"""

from __future__ import annotations

import numpy as np

from repro.core import PoissonShotNoiseModel, TriangularShot, correlation_horizon
from repro.experiments import SCALED_TIMEOUT
from repro.measurement import MeasurementEngine
from repro.netsim import medium_utilization_link
from repro.prediction import (
    EmpiricalPredictor,
    ModelBasedPredictor,
    prediction_error,
)


def main() -> None:
    workload = medium_utilization_link(duration=120.0)
    trace = workload.synthesize(seed=21).trace
    # flows and the single-packet-filtered 200 ms series in one pass
    measured = MeasurementEngine().measure_trace(
        trace, delta=0.2, timeout=SCALED_TIMEOUT
    )
    flows, base = measured.flows, measured.series
    model = PoissonShotNoiseModel.from_flows(
        flows.sizes, flows.durations, trace.duration, TriangularShot()
    )

    horizon = correlation_horizon(
        model.arrival_rate, model.ensemble, model.shot, threshold=0.5
    )
    print(f"rate correlation half-life (Theorem 2): {horizon:.2f} s")
    print(f"mean flow duration: {flows.durations.mean():.2f} s")
    print("prediction is only useful over horizons of this order "
          "(section VII-B)\n")

    print(f"{'theta (s)':>10s} {'samples':>8s} "
          f"{'M emp':>6s} {'err emp':>9s} {'M model':>8s} {'err model':>10s}")
    for theta in (0.4, 1.0, 2.0, 4.0, 8.0):
        series = base.resample(int(round(theta / 0.2)))
        if len(series) < 8:
            break
        empirical = EmpiricalPredictor(series, max_order=8)
        model_based = ModelBasedPredictor(model, theta, max_order=8)
        err_emp = prediction_error(empirical, series)
        err_mod = prediction_error(model_based, series)
        print(f"{theta:10.1f} {len(series):8d} "
              f"{empirical.order:6d} {err_emp:9.2%} "
              f"{model_based.order:8d} {err_mod:10.2%}")

    # one-step-ahead trace at theta = 1 s, the Figure 14 view
    theta = 1.0
    series = base.resample(5)
    predictor = ModelBasedPredictor(model, theta, max_order=6)
    predictions = predictor.predict_series(series.values)
    actual = series.values[predictor.order:]
    print(f"\nFigure-14 style trace (theta = {theta:g} s, "
          f"order M = {predictor.order}):")
    print(f"{'t':>6s} {'measured kB/s':>14s} {'predicted kB/s':>15s}")
    for k in range(0, min(10, actual.size)):
        t = (predictor.order + k) * theta
        print(f"{t:6.1f} {actual[k] / 1e3:14.1f} {predictions[k] / 1e3:15.1f}")
    corr = float(np.corrcoef(predictions, actual)[0, 1])
    print(f"prediction/measurement correlation: {corr:.2f}")


if __name__ == "__main__":
    main()
