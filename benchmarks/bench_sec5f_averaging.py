"""Section V-F — variance of the measured rate vs the averaging interval.

Paper: the monitor's window Delta filters the rate; eq. (7) predicts the
measured variance from the Theorem 2 autocovariance, and "the longer the
averaging interval, the smaller the measured variance" (observed on the
Sprint data).  The benchmark re-measures one synthetic capture at several
Delta values and compares against eq. (7) evaluated on the exported flow
statistics — a direct, quantitative validation of the correction the
paper describes but does not tabulate.
"""

from __future__ import annotations

import numpy as np
from conftest import print_header, run_once

from repro.core import PoissonShotNoiseModel, PowerShot, averaged_variance_curve
from repro.experiments import SCALED_TIMEOUT
from repro.measurement import MeasurementEngine


def test_sec5f_variance_vs_averaging_interval(benchmark, reference_trace):
    deltas = np.array([0.1, 0.2, 0.5, 1.0, 2.0, 5.0])

    def build():
        result = MeasurementEngine().measure_trace(
            reference_trace, delta=deltas[0], timeout=SCALED_TIMEOUT
        )
        flows, base = result.flows, result.series
        measured = [base.variance] + [
            base.resample(int(round(d / deltas[0]))).variance
            for d in deltas[1:]
        ]
        model = PoissonShotNoiseModel.from_flows(
            flows.sizes, flows.durations, reference_trace.duration
        )
        fit = model.fit_power(measured[0])
        predicted = averaged_variance_curve(
            model.arrival_rate, model.ensemble, fit.shot, deltas
        )
        return fit, np.array(measured), predicted, model

    fit, measured, predicted, model = run_once(benchmark, build)

    print_header("SECTION V-F - measured variance vs averaging interval")
    print(f"  shot fitted at Delta = 0.1 s: b = {fit.power:.2f}")
    print(f"  {'Delta (s)':>10s} {'measured var':>14s} {'eq.(7) var':>12s} "
          f"{'ratio':>7s}")
    for d, m, p in zip(np.array([0.1, 0.2, 0.5, 1.0, 2.0, 5.0]), measured, predicted):
        print(f"  {d:10.1f} {m:14.4g} {p:12.4g} {m / p:7.2f}")

    # the paper's observation: measured variance decreases with Delta
    assert np.all(np.diff(measured) < 0)
    # eq. (7) decreasing too, and below the instantaneous Gamma(0)
    assert np.all(np.diff(predicted) < 0)
    gamma0 = model.with_shot(PowerShot(fit.power)).variance
    assert np.all(predicted <= gamma0 * (1 + 1e-9))
    # eq. (7) tracks the measurement within a factor ~[0.5, 2] across a
    # 50x span of Delta (flow-sample noise + non-fluid packets remain)
    ratio = measured / predicted
    assert np.all((ratio > 0.45) & (ratio < 2.2))
