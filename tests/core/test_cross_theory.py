"""Cross-theory consistency tests.

Each test ties two independent derivations of the same quantity together:
Theorem 2 vs Campbell spectra vs eq. (7), normal equations vs realised
errors on model-generated traffic, LST cumulants vs direct moments.
These are the strongest internal checks the reproduction has — if any
formula were transcribed wrong, two routes to the same number would
disagree.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    EmpiricalEnsemble,
    PoissonShotNoiseModel,
    RectangularShot,
    TriangularShot,
    sinc_squared_filter,
)
from repro.generation import GenerationEngine
from repro.prediction import ModelBasedPredictor, prediction_error, theoretical_mse


@pytest.fixture(scope="module")
def small_model():
    gen = np.random.default_rng(4)
    sizes = gen.uniform(1e4, 8e4, 1500)
    durations = gen.uniform(1.0, 4.0, 1500)
    return PoissonShotNoiseModel(
        30.0, EmpiricalEnsemble(sizes, durations), TriangularShot()
    )


class TestSpectralConsistency:
    def test_filtered_spectrum_equals_eq7(self, small_model):
        """Integrating Psi(f) * sinc^2(f Delta) over f must equal the
        eq. (7) time-domain averaged variance (Wiener-Khintchine, §V-F)."""
        delta = 0.5
        freqs = np.linspace(-16.0, 16.0, 3201)
        psi = small_model.spectral_density(freqs, max_flows=300)
        frequency_domain = np.trapezoid(
            psi * sinc_squared_filter(freqs, delta), freqs
        )
        # eq. (7) on the same 300-flow subsample for apples-to-apples
        sub = small_model.ensemble.subsample(300, rng=0)
        sub_model = PoissonShotNoiseModel(30.0, sub, TriangularShot())
        time_domain = sub_model.averaged_variance(delta)
        assert frequency_domain == pytest.approx(time_domain, rel=0.25)

    def test_spectrum_integrates_to_theorem2_at_zero(self, small_model):
        freqs = np.linspace(-16.0, 16.0, 3201)
        sub = small_model.ensemble.subsample(300, rng=0)
        sub_model = PoissonShotNoiseModel(30.0, sub, TriangularShot())
        psi = sub_model.spectral_density(freqs, max_flows=None)
        assert np.trapezoid(psi, freqs) == pytest.approx(
            sub_model.variance, rel=0.1
        )


class TestPredictionConsistency:
    def test_theoretical_mse_matches_realised_on_generated_traffic(
        self, small_model
    ):
        """Normal-equation MSE (from Theorem 2's rho) vs the realised
        one-step error on traffic generated from the same model."""
        theta = 0.5
        predictor = ModelBasedPredictor(small_model, theta, order=3)
        series = GenerationEngine().rate_series(
            small_model.arrival_rate,
            small_model.ensemble,
            small_model.shot,
            duration=2000.0,
            delta=theta,
            seed=8,
        )
        realised = prediction_error(predictor, series) * series.mean
        # predicted error uses the *sampled/averaged* process variance; the
        # generated series variance is the right normaliser
        predicted = np.sqrt(
            theoretical_mse(predictor.rho, predictor.coefficients,
                            variance=series.variance)
        )
        assert realised == pytest.approx(predicted, rel=0.2)

    def test_longer_flows_predict_better(self):
        """Stretch durations 4x (same sizes): more correlation at the same
        horizon, hence lower prediction error — the §VII-B horizon rule."""
        gen = np.random.default_rng(5)
        sizes = gen.uniform(1e4, 8e4, 1200)
        durations = gen.uniform(1.0, 3.0, 1200)
        theta = 1.0
        errors = {}
        for stretch in (1.0, 4.0):
            ens = EmpiricalEnsemble(sizes, durations * stretch)
            model = PoissonShotNoiseModel(30.0, ens, RectangularShot())
            predictor = ModelBasedPredictor(model, theta, order=2)
            series = GenerationEngine().rate_series(
                30.0, ens, RectangularShot(), duration=1200.0, delta=theta,
                seed=9,
            )
            errors[stretch] = prediction_error(predictor, series)
        assert errors[4.0] < errors[1.0]


class TestCumulantConsistency:
    def test_generated_traffic_third_moment(self, small_model):
        """Skewness from Corollary 3 cumulants vs the sample skewness of a
        long generated path (tiny delta to avoid averaging bias)."""
        series = GenerationEngine().rate_series(
            small_model.arrival_rate,
            small_model.ensemble,
            small_model.shot,
            duration=4000.0,
            delta=0.05,
            seed=10,
        )
        x = series.values
        sample_skew = float(
            np.mean((x - x.mean()) ** 3) / np.std(x) ** 3
        )
        assert sample_skew == pytest.approx(small_model.skewness, rel=0.35)
