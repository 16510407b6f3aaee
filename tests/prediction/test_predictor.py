"""Tests for repro.prediction.predictor and evaluation (Table II logic)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PoissonShotNoiseModel, TriangularShot
from repro.exceptions import PredictionError
from repro.generation import GenerationEngine
from repro.prediction import (
    EmpiricalPredictor,
    LinearPredictor,
    ModelBasedPredictor,
    compare_predictors,
    evaluate_predictor,
    prediction_error,
    select_order_by_validation,
)
from repro.stats import RateSeries


def ar1_series(phi=0.8, n=5000, mean=100.0, seed=0, delta=1.0) -> RateSeries:
    rng = np.random.default_rng(seed)
    x = np.zeros(n)
    eps = rng.normal(0.0, 1.0, n)
    for i in range(1, n):
        x[i] = phi * x[i - 1] + eps[i]
    return RateSeries(mean + x, delta)


class TestLinearPredictor:
    def test_predict_next_manual(self):
        pred = LinearPredictor([0.5, 0.25], mean=10.0, sample_interval=1.0)
        history = np.array([10.0, 12.0, 14.0])
        # x_hat = 10 + 0.5*(14-10) + 0.25*(12-10) = 12.5
        assert pred.predict_next(history) == pytest.approx(12.5)

    def test_predict_series_matches_loop(self):
        pred = LinearPredictor([0.6, -0.1], mean=5.0, sample_interval=1.0)
        values = np.array([5.0, 7.0, 6.0, 4.0, 5.5, 6.5])
        vectorised = pred.predict_series(values)
        manual = [
            pred.predict_next(values[: k + 1])
            for k in range(1, values.size - 1)
        ]
        np.testing.assert_allclose(vectorised, manual)

    def test_history_too_short(self):
        pred = LinearPredictor([0.5, 0.5], mean=0.0, sample_interval=1.0)
        with pytest.raises(PredictionError):
            pred.predict_next([1.0])


class TestEmpiricalPredictor:
    def test_learns_ar1(self):
        series = ar1_series(phi=0.8)
        pred = EmpiricalPredictor(series, order=1)
        assert pred.coefficients[0] == pytest.approx(0.8, abs=0.05)

    def test_beats_mean_predictor_on_correlated_series(self):
        series = ar1_series(phi=0.9)
        pred = EmpiricalPredictor(series, order=2)
        err = prediction_error(pred, series)
        # predicting the mean would leave the full std as error
        mean_only_err = series.std / series.mean
        assert err < 0.75 * mean_only_err

    def test_white_noise_coefficients_near_zero(self):
        rng = np.random.default_rng(3)
        series = RateSeries(100.0 + rng.normal(0, 5, 5000), 1.0)
        pred = EmpiricalPredictor(series, order=2)
        assert np.all(np.abs(pred.coefficients) < 0.1)

    def test_too_short_series_rejected(self):
        with pytest.raises(PredictionError):
            EmpiricalPredictor(RateSeries([1.0, 2.0], 1.0), order=3)


class TestModelBasedPredictor:
    def test_built_from_shot_noise_model(self, ensemble):
        model = PoissonShotNoiseModel(60.0, ensemble, TriangularShot())
        pred = ModelBasedPredictor(model, sample_interval=0.2, order=3)
        assert pred.order == 3
        assert pred.mean == pytest.approx(model.mean)
        assert pred.rho[0] == pytest.approx(1.0)
        assert np.all(np.diff(pred.rho) <= 1e-9)

    def test_auto_order_selection(self, ensemble):
        model = PoissonShotNoiseModel(60.0, ensemble, TriangularShot())
        pred = ModelBasedPredictor(model, sample_interval=0.2, max_order=8)
        assert 1 <= pred.order <= 8

    def test_predicts_generated_traffic(self, ensemble):
        """End-to-end: model-derived predictor works on traffic generated
        from the same model (the paper's self-consistency)."""
        model = PoissonShotNoiseModel(60.0, ensemble, TriangularShot())
        series = GenerationEngine().rate_series(
            60.0, ensemble, TriangularShot(), duration=400.0, delta=0.5, seed=4
        )
        pred = ModelBasedPredictor(model, sample_interval=0.5, order=3)
        err = prediction_error(pred, series)
        mean_only = series.std / series.mean
        assert err < mean_only  # correlation exploited


class TestEvaluation:
    def test_report_fields(self):
        series = ar1_series()
        pred = EmpiricalPredictor(series, order=2)
        report = evaluate_predictor(pred, series, kind="empirical")
        assert report.order == 2
        assert report.kind == "empirical"
        assert report.error > 0

    def test_select_order_stops_on_increase(self):
        series = ar1_series(phi=0.7, n=3000)
        order, err = select_order_by_validation(
            lambda m: EmpiricalPredictor(series, order=m), series, max_order=8
        )
        assert 1 <= order <= 8
        assert err > 0

    def test_compare_predictors_rows(self, ensemble):
        model = PoissonShotNoiseModel(60.0, ensemble, TriangularShot())
        series = GenerationEngine().rate_series(
            60.0, ensemble, TriangularShot(), duration=300.0, delta=0.5, seed=5
        )
        rows = compare_predictors(
            {0.5: series, 1.0: series.resample(2)}, model, max_order=4
        )
        assert len(rows) == 2
        assert rows[0].sample_interval == 0.5
        for row in rows:
            assert 0 < row.empirical_error < 1.0
            assert 0 < row.model_error < 1.0
