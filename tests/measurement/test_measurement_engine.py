"""Tests for the streaming, sharded measurement engine.

The headline contract: the chunked/sharded path is **bit-for-bit** equal
to the frozen in-memory oracle — ``reference_export_flows`` plus
``RateSeries.from_packets`` over the packets it keeps — for any ``chunk``
and ``workers``, including every chunk-boundary case the carry table has
to get right (flows spanning chunks, idle gaps of exactly the timeout at
a boundary, single-packet flows split across chunks).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.exceptions import FlowExportError, ParameterError
from repro.execution import ExecutionSpec, RetryPolicy
from repro.flows import export_flows
from repro.measurement import (
    MeasurementEngine,
    StreamingMeasurement,
    iter_packet_chunks,
    reference_export_flows,
)
from repro.netsim import medium_utilization_link
from repro.stats.timeseries import RateSeries
from repro.trace import PacketTrace, TraceWriter, packets_from_columns

TUPLE_A = (0x0A000001, 0x0B000001, 1000, 80, 6)
TUPLE_B = (0x0A000002, 0x0B000002, 2000, 80, 6)
TUPLE_C = (0x0A000003, 0x0B000003, 3000, 80, 17)


def packets_of(rows):
    """rows: list of (t, (src, dst, sport, dport, proto), size)."""
    rows = sorted(rows, key=lambda r: r[0])
    cols = list(zip(*[(t, *tup, size) for t, tup, size in rows]))
    return packets_from_columns(*cols)


def assert_flowsets_equal(a, b):
    np.testing.assert_array_equal(a.starts, b.starts)
    np.testing.assert_array_equal(a.ends, b.ends)
    np.testing.assert_array_equal(a.sizes, b.sizes)
    np.testing.assert_array_equal(a.packet_counts, b.packet_counts)
    np.testing.assert_array_equal(a.keys, b.keys)
    assert a.keys.dtype == b.keys.dtype
    assert a.key_kind == b.key_kind
    assert a.discarded_packets == b.discarded_packets


def oracle(packets, **kwargs):
    """The oracle's flow set (its packet map dropped)."""
    return reference_export_flows(packets, **kwargs)[0]


def oracle_series(packets, delta, *, duration=None, **kwargs):
    """The oracle's flows and single-packet-filtered rate series."""
    if isinstance(packets, PacketTrace):
        duration = packets.duration if duration is None else duration
        packets = packets.packets
    flows, packet_map = reference_export_flows(packets, **kwargs)
    series = RateSeries.from_packets(
        packets[packet_map >= 0], delta, duration=duration
    )
    return flows, series


def streamed(packets, chunk_sizes, *, delta=None, duration=None, **kwargs):
    """Run StreamingMeasurement over explicit chunk splits."""
    sm = StreamingMeasurement(delta=delta, duration=duration, **kwargs)
    offset = 0
    for size in chunk_sizes:
        sm.update(packets[offset: offset + size])
        offset += size
    assert offset == packets.size
    return sm.finalize()


class TestChunkBoundaries:
    """Crafted packet layouts exercising the open-flow carry table."""

    def test_flow_spanning_two_chunks(self):
        pkts = packets_of([
            (0.0, TUPLE_A, 100), (1.0, TUPLE_A, 200),
            (2.0, TUPLE_A, 300), (3.0, TUPLE_A, 400),
        ])
        flows, _ = streamed(pkts, [2, 2], timeout=60.0)
        assert_flowsets_equal(flows, oracle(pkts, timeout=60.0))
        assert len(flows) == 1
        assert flows.sizes[0] == 1000.0
        assert flows.packet_counts[0] == 4

    def test_flow_spanning_three_chunks(self):
        pkts = packets_of([
            (float(i), TUPLE_A, 100 + i) for i in range(6)
        ])
        flows, _ = streamed(pkts, [2, 2, 2], timeout=60.0)
        assert len(flows) == 1
        assert flows.starts[0] == 0.0
        assert flows.ends[0] == 5.0
        assert flows.packet_counts[0] == 6
        assert_flowsets_equal(flows, oracle(pkts, timeout=60.0))

    def test_idle_gap_of_exactly_timeout_at_boundary_continues(self):
        # the exporter's rule is gap > timeout splits; == timeout does not
        pkts = packets_of([(0.0, TUPLE_A, 100), (60.0, TUPLE_A, 100)])
        flows, _ = streamed(pkts, [1, 1], timeout=60.0)
        assert len(flows) == 1
        assert flows.packet_counts[0] == 2
        assert_flowsets_equal(flows, oracle(pkts, timeout=60.0))

    def test_idle_gap_just_over_timeout_at_boundary_splits(self):
        pkts = packets_of([
            (0.0, TUPLE_A, 100), (0.5, TUPLE_A, 100),
            (60.6, TUPLE_A, 100), (61.0, TUPLE_A, 100),
        ])
        flows, _ = streamed(pkts, [2, 2], timeout=60.0)
        assert len(flows) == 2
        assert_flowsets_equal(flows, oracle(pkts, timeout=60.0))

    def test_single_packet_flow_split_across_chunks_merges(self):
        # one packet per chunk, same key, within the timeout: the carry
        # table must join them into one two-packet (kept) flow
        pkts = packets_of([(0.0, TUPLE_A, 100), (5.0, TUPLE_A, 150)])
        flows, _ = streamed(pkts, [1, 1], timeout=60.0)
        assert len(flows) == 1
        assert flows.discarded_packets == 0
        assert_flowsets_equal(flows, oracle(pkts, timeout=60.0))

    def test_single_packet_flows_split_across_chunks_discarded(self):
        # same key in consecutive chunks but beyond the timeout: two
        # single-packet flows, both discarded
        pkts = packets_of([(0.0, TUPLE_A, 100), (100.0, TUPLE_A, 150)])
        flows, _ = streamed(pkts, [1, 1], timeout=60.0)
        assert len(flows) == 0
        assert flows.discarded_packets == 2
        assert_flowsets_equal(flows, oracle(pkts, timeout=60.0))

    def test_zero_duration_flow_across_chunks_discarded(self):
        pkts = packets_of([(1.0, TUPLE_A, 100), (1.0, TUPLE_A, 200)])
        flows, _ = streamed(pkts, [1, 1], timeout=60.0)
        assert len(flows) == 0
        assert flows.discarded_packets == 2

    def test_key_reappearing_after_timeout_closes_carried_flow(self):
        pkts = packets_of([
            (0.0, TUPLE_A, 100), (1.0, TUPLE_A, 100),   # flow 1 (kept)
            (2.0, TUPLE_B, 100),                          # interleaved
            (90.0, TUPLE_A, 100), (91.0, TUPLE_A, 100),  # flow 2 (kept)
            (92.0, TUPLE_B, 100),
        ])
        for split in ([6], [3, 3], [1] * 6, [2, 4]):
            flows, _ = streamed(pkts, split, timeout=60.0)
            assert_flowsets_equal(flows, oracle(pkts, timeout=60.0))

    def test_discarded_packets_excluded_from_series_across_chunks(self):
        # TUPLE_B is a single-packet flow: its 5000 bytes must not show
        # up in the rate series, whichever chunk it lands in
        pkts = packets_of([
            (0.1, TUPLE_A, 100), (0.9, TUPLE_A, 100),
            (1.1, TUPLE_B, 5000),
            (2.1, TUPLE_C, 100), (2.2, TUPLE_C, 100),
        ])
        base, expected = oracle_series(pkts, 1.0, duration=4.0, timeout=60.0)
        for split in ([5], [1] * 5, [3, 2], [2, 2, 1]):
            flows, series = streamed(
                pkts, split, delta=1.0, duration=4.0, timeout=60.0
            )
            np.testing.assert_array_equal(series.values, expected.values)
            assert_flowsets_equal(flows, base)

    def test_min_packets_pending_across_chunks(self):
        # with min_packets=3 a two-packet flow is discarded; both its
        # packets arrived in different chunks, so the carry table's
        # pending byte map must subtract them from the series
        pkts = packets_of([
            (0.2, TUPLE_A, 100), (1.2, TUPLE_A, 200),
            (0.4, TUPLE_B, 10), (1.4, TUPLE_B, 20), (2.4, TUPLE_B, 30),
        ])
        base, expected = oracle_series(
            pkts, 0.5, duration=3.0, timeout=60.0, min_packets=3
        )
        for split in ([5], [1] * 5, [2, 3], [4, 1]):
            flows, series = streamed(
                pkts, split, delta=0.5, duration=3.0,
                timeout=60.0, min_packets=3,
            )
            np.testing.assert_array_equal(series.values, expected.values)
            assert_flowsets_equal(flows, base)

    def test_out_of_order_chunks_rejected(self):
        sm = StreamingMeasurement()
        sm.update(packets_of([(5.0, TUPLE_A, 100)]))
        with pytest.raises(FlowExportError, match="time-ordered"):
            sm.update(packets_of([(1.0, TUPLE_A, 100)]))

    def test_empty_input(self):
        sm = StreamingMeasurement(delta=1.0, duration=4.0)
        flows, series = sm.finalize()
        assert len(flows) == 0
        assert series is not None
        np.testing.assert_array_equal(series.values, np.zeros(4))


class TestEquivalenceOnPresets:
    """Chunked/sharded measurement == in-memory oracle on Table I traffic."""

    @pytest.fixture(scope="class")
    def trace(self):
        return medium_utilization_link(duration=20.0).synthesize(seed=11).trace

    @pytest.mark.parametrize("key", ["five_tuple", "prefix"])
    @pytest.mark.parametrize("chunk,workers", [
        (None, 1), (None, 4), (1000, 1), (997, 3), (50, 2),
    ])
    def test_bitwise_equal_to_in_memory(self, trace, key, chunk, workers):
        base, expected = oracle_series(trace, 0.2, key=key, timeout=8.0)
        engine = MeasurementEngine(chunk=chunk, workers=workers)
        result = engine.measure_trace(trace, delta=0.2, key=key, timeout=8.0)
        assert_flowsets_equal(result.flows, base)
        np.testing.assert_array_equal(result.series.values, expected.values)
        assert result.series.delta == expected.delta
        assert result.packet_count == len(trace)
        assert result.link_capacity == trace.link_capacity

    def test_unsorted_trace_sorted_before_chunking(self, trace):
        """measure_trace on an invalid (unsorted) capture still equals
        the oracle on it, for any chunk — the engine sorts first."""
        rng = np.random.default_rng(0)
        shuffled = trace.packets[rng.permutation(len(trace))]
        base, expected = oracle_series(
            shuffled, 0.2, duration=trace.duration, timeout=8.0
        )
        for chunk in (None, 1000):
            result = MeasurementEngine(chunk=chunk).measure_trace(
                shuffled, duration=trace.duration, delta=0.2, timeout=8.0
            )
            assert_flowsets_equal(result.flows, base)
            np.testing.assert_array_equal(
                result.series.values, expected.values
            )

    def test_matches_reference_exporter(self, trace):
        """The export_flows front door and the np.unique oracle agree."""
        for key in ("five_tuple", "prefix"):
            assert_flowsets_equal(
                export_flows(trace, key=key, timeout=8.0),
                oracle(trace, key=key, timeout=8.0),
            )

    def test_measure_file_out_of_core(self, trace, tmp_path):
        path = tmp_path / "capture.rptr"
        with TraceWriter(
            path, link_capacity=trace.link_capacity, duration=trace.duration
        ) as writer:
            for block in iter_packet_chunks(trace, 2000):
                writer.write(block)
        base = MeasurementEngine().measure_trace(trace, delta=0.2, timeout=8.0)
        result = MeasurementEngine(chunk=1500, workers=2).measure_file(
            path, delta=0.2, timeout=8.0
        )
        assert_flowsets_equal(result.flows, base.flows)
        np.testing.assert_array_equal(
            result.series.values, base.series.values
        )
        assert result.duration == trace.duration
        assert result.link_capacity == trace.link_capacity

    def test_synthesize_chunks_bridge(self, trace):
        workload = medium_utilization_link(duration=20.0)
        chunks = list(workload.synthesize_chunks(seed=11, chunk=3000))
        assert sum(c.size for c in chunks) == len(trace)
        assert all(c.size <= 3000 for c in chunks)
        result = MeasurementEngine().measure_chunks(
            chunks, duration=workload.duration, delta=0.2, timeout=8.0
        )
        base = MeasurementEngine().measure_trace(
            trace, delta=0.2, duration=workload.duration, timeout=8.0
        )
        assert_flowsets_equal(result.flows, base.flows)
        np.testing.assert_array_equal(
            result.series.values, base.series.values
        )

    def test_statistics_shortcut(self, trace):
        result = MeasurementEngine(chunk=4096).measure_trace(
            trace, delta=0.2, timeout=8.0
        )
        stats = result.statistics()
        expected = result.flows.statistics(trace.duration)
        assert stats.arrival_rate == expected.arrival_rate
        assert stats.mean_size == expected.mean_size


class TestEngineKeywords:
    def test_rejects_bad_chunk(self):
        with pytest.raises(ParameterError):
            MeasurementEngine(chunk=0)
        with pytest.raises(ParameterError):
            MeasurementEngine(chunk=2.5)

    def test_rejects_bad_workers_and_backend(self):
        with pytest.raises(ParameterError):
            MeasurementEngine(workers=0)
        with pytest.raises(ParameterError):
            MeasurementEngine(backend="forkserver")

    def test_engine_keywords(self):
        policy = RetryPolicy(max_retries=1)
        engine = MeasurementEngine(chunk=10, workers=3, retry=policy)
        assert engine.execution == ExecutionSpec(10, 3, retry=policy)

    def test_streamer_validation(self):
        with pytest.raises(FlowExportError):
            StreamingMeasurement(key="port")
        with pytest.raises(FlowExportError):
            StreamingMeasurement(timeout=0.0)
        with pytest.raises(FlowExportError):
            StreamingMeasurement(delta=0.2)  # delta without duration
        with pytest.raises(FlowExportError):
            StreamingMeasurement(delta=10.0, duration=1.0)  # < one bin

    def test_iter_packet_chunks_validation(self):
        pkts = packets_of([(0.0, TUPLE_A, 100)])
        with pytest.raises(ParameterError):
            list(iter_packet_chunks(pkts, 0))
        with pytest.raises(ParameterError):
            list(iter_packet_chunks(np.zeros(3), None))
        assert [c.size for c in iter_packet_chunks(pkts, None)] == [1]


class TestEdgeCaseFiles:
    """measure_file on degenerate traces: zero packets, one packet."""

    def write_file(self, tmp_path, rows, *, duration=10.0):
        path = tmp_path / "edge.rptr"
        with TraceWriter(path, link_capacity=1e6, duration=duration) as w:
            if rows:
                w.write(packets_of(rows))
        return path

    def test_empty_trace_file(self, tmp_path):
        path = self.write_file(tmp_path, [])
        result = MeasurementEngine().measure_file(path, delta=0.5)
        assert len(result.flows) == 0
        assert result.flows.discarded_packets == 0
        assert result.duration == 10.0
        assert result.utilization == 0.0
        # the rate series still covers the header's duration, all zeros
        assert len(result.series) == 20
        assert result.series.mean == 0.0
        assert result.series.variance == 0.0

    def test_empty_trace_file_without_delta(self, tmp_path):
        path = self.write_file(tmp_path, [])
        result = MeasurementEngine().measure_file(path)
        assert len(result.flows) == 0
        assert result.series is None

    def test_single_packet_trace_file(self, tmp_path):
        path = self.write_file(tmp_path, [(1.0, TUPLE_A, 100)])
        result = MeasurementEngine().measure_file(path, delta=0.5)
        # a lone packet is a zero-duration flow: discarded by the
        # min-packet/zero-duration filter, but still on the wire
        assert len(result.flows) == 0
        assert result.flows.discarded_packets == 1
        assert result.utilization == pytest.approx(100 * 8 / (1e6 * 10.0))
        assert result.series.mean == 0.0  # filtered series drops it

    def test_single_packet_survives_chunked_run(self, tmp_path):
        path = self.write_file(tmp_path, [(1.0, TUPLE_A, 100)])
        engine = MeasurementEngine(chunk=1)
        result = engine.measure_file(path, delta=0.5)
        assert len(result.flows) == 0
        assert result.flows.discarded_packets == 1

    def test_two_packets_one_flow(self, tmp_path):
        """The smallest trace that produces a flow at all."""
        path = self.write_file(
            tmp_path, [(1.0, TUPLE_A, 100), (1.5, TUPLE_A, 200)]
        )
        result = MeasurementEngine().measure_file(path, delta=0.5)
        assert len(result.flows) == 1
        assert result.flows.sizes[0] == 300
        assert result.flows.durations[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("chunk", [None, 1, 2])
    def test_non_finite_timestamp_file_rejected(self, tmp_path, chunk):
        """A NaN timestamp is named before any binning — no cast warning,
        no internal pending-bin error, whatever the chunking."""
        pkts = packets_of([
            (1.0, TUPLE_A, 100), (1.5, TUPLE_A, 200), (2.0, TUPLE_B, 300),
        ])
        pkts["timestamp"][1] = np.nan
        path = tmp_path / "nan.rptr"
        with TraceWriter(
            path, link_capacity=1e6, duration=10.0, allow_unsorted=True
        ) as w:
            w.write(pkts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                FlowExportError, match=r"packet 1 has a non-finite timestamp"
            ):
                MeasurementEngine(chunk=chunk).measure_file(path, delta=0.5)

    @pytest.mark.parametrize("bad,at", [(np.nan, 0), (np.inf, 2), (-np.inf, 0)])
    def test_non_finite_timestamp_in_memory_rejected(self, bad, at):
        pkts = packets_of([
            (1.0, TUPLE_A, 100), (1.5, TUPLE_A, 200), (2.0, TUPLE_B, 300),
        ])
        pkts["timestamp"][at] = bad
        for chunk in (None, 1):
            with pytest.raises(FlowExportError, match=f"packet {at} "):
                MeasurementEngine(chunk=chunk).measure_trace(
                    pkts, delta=0.5, duration=4.0
                )

