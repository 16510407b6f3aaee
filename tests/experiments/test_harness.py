"""Tests for the experiments harness, figure and table builders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    build_table1,
    build_table2,
    fig1_flow_splitting,
    fig2_shot_construction,
    fig3_4_interarrivals,
    fig5_6_sequence_correlation,
    fig7_shot_shapes,
    fig8_rate_autocorrelation,
    fig9_13_scatter,
    fig11_power_histogram,
    utilization_class,
)
from repro.netsim import DEFAULT_SCALE, medium_utilization_link, table_i_workload


class TestMeasureTrace:
    def test_fields_populated(self, measure_interval):
        measurement, flows = measure_interval("five_tuple")
        assert measurement.n_flows == len(flows)
        assert measurement.measured_cov > 0
        assert set(measurement.model_cov) == {0.0, 1.0, 2.0}
        assert measurement.model_cov[0.0] < measurement.model_cov[2.0]
        assert np.isfinite(measurement.fitted_power)
        assert measurement.statistics.flow_count == len(flows)

    def test_relative_error_and_band(self, measure_interval):
        measurement, _ = measure_interval("five_tuple")
        for power in (0.0, 1.0, 2.0):
            rel = measurement.relative_error(power)
            assert measurement.within_band(power, 0.20) == (abs(rel) <= 0.20)

    def test_prefix_kind(self, measure_interval):
        measurement, flows = measure_interval("prefix")
        assert measurement.flow_kind == "prefix"
        assert flows.key_kind == "prefix"


class TestUtilizationClass:
    def test_paper_edges_scaled(self):
        scale = DEFAULT_SCALE
        assert utilization_class(49e6 * scale) == "low"
        assert utilization_class(51e6 * scale) == "medium"
        assert utilization_class(126e6 * scale) == "high"

    def test_class_of_presets(self, trace):
        # the medium preset (136 Mbps class) must land in "high"ish band:
        # 136 Mbps > 125 Mbps edge
        assert utilization_class(trace.mean_rate_bps) in ("medium", "high")


class TestFigureBuilders:
    def test_fig1(self, five_tuple_flows, trace):
        data = fig1_flow_splitting(five_tuple_flows, trace.duration)
        assert np.all(np.diff(data.cumulative) >= 0)
        assert data.cumulative[-1] == len(five_tuple_flows)
        assert data.zoom_times[-1] <= trace.duration / 30.0 + 1e-9

    def test_fig2(self):
        data = fig2_shot_construction(n_flows=3)
        assert data.per_flow_rates.shape[0] == 3
        np.testing.assert_allclose(
            data.total_rate, data.per_flow_rates.sum(axis=0)
        )
        # each flow integrates to its size
        for i in range(3):
            integral = np.trapezoid(data.per_flow_rates[i], data.grid)
            assert integral == pytest.approx(data.sizes[i], rel=0.05)

    def test_fig3_4(self, five_tuple_flows):
        data = fig3_4_interarrivals(five_tuple_flows)
        assert data.qq.correlation > 0.98  # Poisson arrivals by design
        assert np.all(np.abs(data.autocorrelation[1:]) < 0.15)
        assert data.mean_interarrival > 0

    def test_fig5_6(self, five_tuple_flows):
        data = fig5_6_sequence_correlation(five_tuple_flows)
        assert data.lags.size == data.size_autocorrelation.size
        assert data.size_autocorrelation[0] == pytest.approx(1.0)
        # iid sequences: correlation drops after lag 0 (paper Figs 5-6)
        assert np.all(np.abs(data.size_autocorrelation[1:]) < 0.2)
        assert np.all(np.abs(data.duration_autocorrelation[1:]) < 0.2)

    def test_fig7(self):
        shapes = fig7_shot_shapes()
        assert set(shapes) == {0.0, 1.0, 0.5, 2.0}
        v = np.linspace(0, 1, 101)
        for b, profile in shapes.items():
            assert np.trapezoid(profile, v) == pytest.approx(1.0, rel=0.02)

    def test_fig8(self, five_tuple_flows, trace):
        lags, curves = fig8_rate_autocorrelation(
            five_tuple_flows, trace.duration, max_lag=0.4
        )
        for b, rho in curves.items():
            assert rho[0] == pytest.approx(1.0, abs=0.01)
            assert np.all(np.diff(rho) <= 1e-9)
            # paper Figure 8: correlation still high at 400 ms
            assert rho[-1] > 0.5

    def test_fig9_13_scatter(self, measure_interval):
        m1, _ = measure_interval("five_tuple", seed=1)
        m2, _ = measure_interval("five_tuple", seed=2)
        scatter = fig9_13_scatter([m1, m2], power=1.0)
        assert scatter.measured.shape == (2,)
        assert 0.0 <= scatter.within_20pct <= 1.0

    def test_fig11_histogram(self, measure_interval):
        m, _ = measure_interval("five_tuple")
        edges, share, mean_b = fig11_power_histogram([m, m])
        assert share.sum() == pytest.approx(100.0)
        assert mean_b == pytest.approx(m.fitted_power)


class TestTableBuilders:
    def test_table1_single_workload(self):
        workload = table_i_workload(3, duration=30.0)
        rows = build_table1([workload], seed=0)
        assert len(rows) == 1
        row = rows[0]
        assert row.measured_mbps == pytest.approx(row.target_mbps, rel=0.25)
        assert row.utilization < 0.5
        assert abs(row.relative_error) < 0.25

    def test_table2_rows(self):
        workload = medium_utilization_link(duration=120.0)
        rows = build_table2(
            workload, seed=0, prediction_intervals=(1.0, 4.0), max_order=4
        )
        assert len(rows) == 2
        for row in rows:
            assert 0.0 < row.empirical_error < 0.6
            assert 0.0 < row.model_error < 0.6
            assert 1 <= row.empirical_order <= 4
            assert 1 <= row.model_order <= 4
