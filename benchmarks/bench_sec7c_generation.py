"""Section VII-C — generation of backbone traffic.

Paper: generating flows as Poisson with sizes/durations from measured
statistics and transmitting along the fitted shot reproduces the second-
order statistics of the real traffic; constant-rate (rectangular)
transmission only matches when the real shots are rectangles.

The benchmark closes the loop: measure a synthetic "real" trace, fit the
shot power, regenerate traffic from the fitted model, and compare the
CoV of real vs regenerated traffic for the fitted shot and for the naive
rectangular generator.
"""

from __future__ import annotations

from conftest import QUICK, print_header, run_once

from repro.core import PoissonShotNoiseModel, RectangularShot
from repro.experiments import DELTA, SCALED_TIMEOUT
from repro.generation import GenerationEngine
from repro.measurement import MeasurementEngine

#: Generated-path length; shorter in CI smoke mode (REPRO_BENCH_QUICK=1).
GENERATION_DURATION = 120.0 if QUICK else 240.0


def test_sec7c_generation_matches_measured_statistics(benchmark, reference_trace):
    def build():
        result = MeasurementEngine().measure_trace(
            reference_trace, delta=DELTA, timeout=SCALED_TIMEOUT
        )
        flows, measured = result.flows, result.series
        model = PoissonShotNoiseModel.from_flows(
            flows.sizes, flows.durations, reference_trace.duration
        )
        fit = model.fit_power(measured.variance)
        fitted = GenerationEngine().rate_series(
            model.arrival_rate, model.ensemble, fit.shot,
            duration=GENERATION_DURATION, delta=DELTA, seed=1,
        )
        naive = GenerationEngine().rate_series(
            model.arrival_rate, model.ensemble, RectangularShot(),
            duration=GENERATION_DURATION, delta=DELTA, seed=1,
        )
        return measured, fit, fitted, naive

    measured, fit, fitted, naive = run_once(benchmark, build)

    print_header("SECTION VII-C - regenerating the measured traffic")
    print(f"  fitted shot power b = {fit.power:.2f} (kappa = {fit.kappa:.2f})")
    print(f"  {'series':>22s} {'mean (kB/s)':>12s} {'CoV':>8s}")
    for name, series in (
        ("measured", measured),
        (f"generated b={fit.power:.2f}", fitted),
        ("generated b=0", naive),
    ):
        print(f"  {name:>22s} {series.mean / 1e3:12.1f} "
              f"{series.coefficient_of_variation:8.2%}")

    # means agree across the board (Corollary 1 is shape-free)
    assert fitted.mean == __import__("pytest").approx(measured.mean, rel=0.1)
    # fitted-shot generation reproduces the measured CoV better than the
    # naive constant-rate generator whenever the fit is non-rectangular
    err_fitted = abs(fitted.coefficient_of_variation
                     - measured.coefficient_of_variation)
    err_naive = abs(naive.coefficient_of_variation
                    - measured.coefficient_of_variation)
    print(f"  |CoV error| fitted: {err_fitted:.3%}   naive: {err_naive:.3%}")
    if fit.power > 0.3:
        assert err_fitted <= err_naive + 0.01
    assert err_fitted < 0.05  # within 5 CoV points of the real traffic
