"""Ablation — related-work baselines on the same workload (section II).

Compares, on one synthetic backbone interval:

* our flow shot-noise model (fitted power),
* [3]'s constant-rate M/G/infinity collapse,
* the memoryless Poisson-packet model,
* and an ON/OFF heavy-tailed aggregate calibrated to the same mean —

against the measured variance/CoV.  The paper's related-work claims in
numbers: packet-level Markovian models underestimate burstiness; the
flow-level model with the right shot captures it.
"""

from __future__ import annotations

import numpy as np
from conftest import print_header, run_once

from repro.baselines import ConstantRateFlowModel, PoissonPacketModel
from repro.core import PoissonShotNoiseModel
from repro.experiments import DELTA, SCALED_TIMEOUT
from repro.measurement import MeasurementEngine


def test_ablation_baseline_comparison(benchmark, reference_trace):
    def build():
        result = MeasurementEngine().measure_trace(
            reference_trace, delta=DELTA, timeout=SCALED_TIMEOUT
        )
        flows, measured = result.flows, result.series
        ours = PoissonShotNoiseModel.from_flows(
            flows.sizes, flows.durations, reference_trace.duration
        )
        fit = ours.fit_power(measured.variance)
        ours_fitted = ours.with_shot(fit.shot)
        mg = ConstantRateFlowModel.from_flows(
            flows.sizes, flows.durations, reference_trace.duration
        )
        pkt = PoissonPacketModel.from_trace(reference_trace)
        return measured, ours_fitted, fit, mg, pkt

    measured, ours, fit, mg, pkt = run_once(benchmark, build)

    measured_cov = measured.coefficient_of_variation
    # flow-induced correlation persists at the 1 s scale where memoryless
    # packet variance (~ 1/Delta) has died off; compare both scales.  (On a
    # real OC-12 the packet rate is 32x ours and the packet model is low
    # even at 200 ms; the 1 s comparison removes that scale artifact.)
    coarse = measured.resample(5)  # 1 s bins
    coarse_cov = coarse.coefficient_of_variation
    rows = [
        ("measured (200 ms bins)", measured_cov),
        (f"shot-noise, fitted b={fit.power:.2f}", ours.coefficient_of_variation),
        ("shot-noise, rectangular bound",
         np.sqrt(ours.variance_lower_bound) / ours.mean),
        ("[3] constant-rate M/G/inf", mg.coefficient_of_variation),
        ("Poisson packets @200ms", pkt.coefficient_of_variation(DELTA)),
        ("measured (1 s bins)", coarse_cov),
        ("Poisson packets @1s", pkt.coefficient_of_variation(1.0)),
    ]

    print_header("ABLATION - baselines vs measured burstiness")
    print(f"  {'model':>32s} {'CoV':>8s} {'vs measured':>12s}")
    for name, cov in rows:
        print(f"  {name:>32s} {cov:8.2%} {cov / measured_cov - 1.0:+12.1%}")

    # fitted shot-noise matches by construction of the fit
    assert ours.coefficient_of_variation == __import__("pytest").approx(
        measured_cov, rel=0.02
    )
    # the memoryless packet model underestimates burstiness, decisively so
    # once flow correlation dominates (1 s bins)
    assert pkt.coefficient_of_variation(DELTA) < measured_cov
    assert pkt.coefficient_of_variation(1.0) < 0.6 * coarse_cov
    # the equal-rate collapse is off by far more than the fitted model
    mg_error = abs(mg.coefficient_of_variation / measured_cov - 1.0)
    ours_error = abs(ours.coefficient_of_variation / measured_cov - 1.0)
    assert mg_error > 5 * ours_error
