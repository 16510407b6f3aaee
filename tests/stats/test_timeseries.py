"""Tests for repro.stats.timeseries: the measured rate series."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.stats import RateSeries
from repro.trace import packets_from_columns


def simple_packets(times, sizes):
    n = len(times)
    return packets_from_columns(
        np.asarray(times, dtype=float),
        np.full(n, 1), np.full(n, 2), np.full(n, 3), np.full(n, 4),
        np.full(n, 6), np.asarray(sizes),
    )


class TestBinning:
    def test_volume_per_bin(self):
        pkts = simple_packets([0.05, 0.15, 0.25, 0.35], [100, 200, 300, 400])
        series = RateSeries.from_packets(pkts, 0.2, duration=0.4)
        np.testing.assert_allclose(series.values, [1500.0, 3500.0])

    def test_partial_trailing_bin_dropped(self):
        pkts = simple_packets([0.05, 0.25, 0.45], [100, 100, 9999])
        series = RateSeries.from_packets(pkts, 0.2, duration=0.5)
        assert len(series) == 2  # the 0.4-0.5 remnant is not a full bin

    def test_empty_bins_are_zero(self):
        pkts = simple_packets([0.05, 0.65], [100, 100])
        series = RateSeries.from_packets(pkts, 0.2, duration=0.8)
        np.testing.assert_allclose(series.values, [500.0, 0.0, 0.0, 500.0])

    def test_packet_mask_excludes(self):
        pkts = simple_packets([0.05, 0.15], [100, 900])
        series = RateSeries.from_packets(
            pkts[np.array([True, False])], 0.2, duration=0.2
        )
        np.testing.assert_allclose(series.values, [500.0])

    def test_from_trace_uses_duration(self, trace):
        series = RateSeries.from_packets(trace, 0.2)
        assert len(series) == int(np.floor(trace.duration / 0.2))
        # total volume matches (up to the dropped partial bin)
        assert series.values.sum() * 0.2 == pytest.approx(
            trace.total_bytes, rel=0.01
        )

    def test_packet_mask_keyword_is_gone(self):
        # filter the packets themselves: from_packets(packets[mask], ...)
        pkts = simple_packets([0.05], [100])
        with pytest.raises(TypeError):
            RateSeries.from_packets(pkts, 0.2, packet_mask=np.ones(1, bool))

    def test_duration_too_short(self):
        pkts = simple_packets([0.05], [100])
        with pytest.raises(ParameterError):
            RateSeries.from_packets(pkts, 0.2, duration=0.1)


class TestMoments:
    def test_mean_variance_cov(self):
        series = RateSeries([1.0, 2.0, 3.0, 4.0], 0.5)
        assert series.mean == pytest.approx(2.5)
        assert series.variance == pytest.approx(np.var([1, 2, 3, 4], ddof=1))
        assert series.coefficient_of_variation == pytest.approx(
            series.std / 2.5
        )

    def test_single_sample_zero_variance(self):
        assert RateSeries([5.0], 1.0).variance == 0.0

    def test_cov_of_zero_series_rejected(self):
        with pytest.raises(ParameterError):
            RateSeries([0.0, 0.0], 1.0).coefficient_of_variation

    def test_times(self):
        series = RateSeries([1.0, 2.0, 3.0], 0.5, start=10.0)
        np.testing.assert_allclose(series.times, [10.0, 10.5, 11.0])


class TestResample:
    def test_pairwise_average(self):
        series = RateSeries([1.0, 3.0, 5.0, 7.0], 0.5)
        coarse = series.resample(2)
        np.testing.assert_allclose(coarse.values, [2.0, 6.0])
        assert coarse.delta == 1.0

    def test_truncates_remainder(self):
        series = RateSeries([1.0, 2.0, 3.0, 4.0, 5.0], 1.0)
        coarse = series.resample(2)
        assert len(coarse) == 2

    def test_averaging_reduces_variance(self, trace):
        series = RateSeries.from_packets(trace, 0.1)
        coarse = series.resample(10)
        assert coarse.variance < series.variance

    def test_mean_preserved(self):
        series = RateSeries(np.arange(12.0), 1.0)
        assert series.resample(3).mean == pytest.approx(series.mean)

    def test_factor_validation(self):
        series = RateSeries([1.0, 2.0], 1.0)
        with pytest.raises(ParameterError):
            series.resample(0)
        with pytest.raises(ParameterError):
            series.resample(5)


class TestWindow:
    def test_slices_values_and_start(self):
        series = RateSeries(np.arange(10.0), 0.5)
        cut = series.window(2, 6)
        np.testing.assert_allclose(cut.values, [2.0, 3.0, 4.0, 5.0])
        assert cut.start == pytest.approx(1.0)

    def test_bounds_validated(self):
        series = RateSeries(np.arange(5.0), 0.5)
        with pytest.raises(ParameterError):
            series.window(3, 3)
        with pytest.raises(ParameterError):
            series.window(0, 99)
