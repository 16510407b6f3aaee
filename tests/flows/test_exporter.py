"""Tests for repro.flows.exporter: the NetFlow-like accounting rules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import FlowExportError
from repro.flows import export_flows, export_five_tuple_flows, export_prefix_flows
from repro.measurement import reference_export_flows
from repro.trace import packets_from_columns


def packets_of(rows):
    """rows: list of (t, src, dst, sport, dport, proto, size)."""
    cols = list(zip(*rows))
    return packets_from_columns(*cols)


TUPLE_A = (0x0A000001, 0x0B000001, 1000, 80, 6)
TUPLE_B = (0x0A000002, 0x0B000002, 2000, 80, 6)


def row(t, tup=TUPLE_A, size=100):
    return (t, *tup, size)


class TestGrouping:
    def test_two_five_tuple_flows(self):
        pkts = packets_of(
            [row(0.0), row(1.0), row(0.5, TUPLE_B), row(1.5, TUPLE_B)]
        )
        flows = export_five_tuple_flows(pkts)
        assert len(flows) == 2
        assert sorted(flows.packet_counts.tolist()) == [2, 2]

    def test_flow_size_is_byte_sum(self):
        pkts = packets_of([row(0.0, size=100), row(1.0, size=250)])
        flows = export_five_tuple_flows(pkts)
        assert flows.sizes[0] == pytest.approx(350.0)

    def test_duration_first_to_last_packet(self):
        pkts = packets_of([row(0.25), row(0.5), row(2.0)])
        flows = export_five_tuple_flows(pkts)
        assert flows.starts[0] == pytest.approx(0.25)
        assert flows.ends[0] == pytest.approx(2.0)
        assert flows.durations[0] == pytest.approx(1.75)

    def test_prefix_grouping_merges_same_slash24(self):
        a = (0x0A000001, 0x0B000001, 1000, 80, 6)  # dst 11.0.0.1
        b = (0x0A000009, 0x0B000002, 4000, 80, 6)  # dst 11.0.0.2 same /24
        c = (0x0A000003, 0x0B000101, 1000, 80, 6)  # dst 11.0.1.1 other /24
        pkts = packets_of([row(0.0, a), row(0.5, b), row(0.2, c), row(0.9, c)])
        flows = export_prefix_flows(pkts)
        assert len(flows) == 2
        merged = flows.sizes[np.argmax(flows.packet_counts)]
        assert merged == pytest.approx(200.0)

    def test_prefix_length_parameter(self):
        a = (1, 0x0B000101, 1, 80, 6)
        b = (2, 0x0B00FF01, 2, 80, 6)  # same /16, different /24
        pkts = packets_of([row(0.0, a), row(0.5, a), row(0.2, b), row(0.7, b)])
        by24 = export_prefix_flows(pkts, prefix_length=24)
        by16 = export_prefix_flows(pkts, prefix_length=16)
        assert len(by24) == 2
        assert len(by16) == 1


class TestTimeout:
    def test_gap_beyond_timeout_splits(self):
        pkts = packets_of([row(0.0), row(1.0), row(100.0), row(101.0)])
        flows = export_five_tuple_flows(pkts, timeout=60.0)
        assert len(flows) == 2

    def test_gap_within_timeout_keeps_one_flow(self):
        pkts = packets_of([row(0.0), row(59.0), row(118.0)])
        flows = export_five_tuple_flows(pkts, timeout=60.0)
        assert len(flows) == 1
        assert flows.packet_counts[0] == 3

    def test_timeout_boundary_inclusive(self):
        pkts = packets_of([row(0.0), row(60.0)])
        flows = export_five_tuple_flows(pkts, timeout=60.0)
        assert len(flows) == 1

    def test_rejects_nonpositive_timeout(self):
        pkts = packets_of([row(0.0)])
        with pytest.raises(FlowExportError):
            export_five_tuple_flows(pkts, timeout=0.0)


class TestDiscardRules:
    def test_single_packet_flow_discarded(self):
        pkts = packets_of([row(0.0), row(0.3, TUPLE_B), row(0.8, TUPLE_B)])
        flows = export_five_tuple_flows(pkts)
        assert len(flows) == 1
        assert flows.discarded_packets == 1

    def test_zero_duration_flow_discarded(self):
        # two packets with identical timestamps: duration would be zero
        pkts = packets_of([row(1.0), row(1.0)])
        flows = export_five_tuple_flows(pkts)
        assert len(flows) == 0
        assert flows.discarded_packets == 2

    def test_byte_conservation(self):
        rng = np.random.default_rng(0)
        rows = []
        for i in range(200):
            tup = (int(rng.integers(1, 5)), 0x0B000001, 1000, 80, 6)
            rows.append((float(rng.random() * 10), *tup, 100))
        pkts = packets_of(rows)
        flows = export_five_tuple_flows(pkts)
        kept = flows.sizes.sum()
        assert kept + 100 * flows.discarded_packets == pytest.approx(200 * 100)

    def test_packet_map_matches_discards(self):
        # only the in-memory oracle keeps a per-packet flow map
        pkts = packets_of([row(0.0), row(0.5), row(0.9, TUPLE_B)])
        flows, ids = reference_export_flows(pkts)
        assert len(flows) == 1
        assert ids.shape == (3,)
        assert (ids >= 0).sum() == 2  # the two TUPLE_A packets
        assert ids[2] == -1  # single-packet TUPLE_B discarded

    def test_min_packets_parameter(self):
        pkts = packets_of([row(0.0), row(0.5), row(1.0)])
        assert len(export_five_tuple_flows(pkts, min_packets=4)) == 0
        assert len(export_five_tuple_flows(pkts, min_packets=3)) == 1


class TestEdgeCases:
    def test_empty_input(self):
        pkts = packets_of([row(0.0)])[:0]
        flows = export_five_tuple_flows(pkts)
        assert len(flows) == 0

    def test_unsorted_input_handled(self):
        pkts = packets_of([row(2.0), row(0.0), row(1.0)])
        flows = export_five_tuple_flows(pkts)
        assert len(flows) == 1
        assert flows.starts[0] == pytest.approx(0.0)
        assert flows.ends[0] == pytest.approx(2.0)

    def test_unknown_key_kind_rejected(self):
        pkts = packets_of([row(0.0)])
        with pytest.raises(FlowExportError):
            export_flows(pkts, key="port")

    def test_wrong_dtype_rejected(self):
        with pytest.raises(FlowExportError, match="PACKET_DTYPE"):
            export_flows(np.zeros(4))
        pkts = packets_of([row(0.0), row(1.0)])
        for bad in (-1, 33):
            with pytest.raises(FlowExportError, match="prefix length"):
                export_prefix_flows(pkts, prefix_length=bad)

    def test_non_finite_timestamp_rejected(self):
        pkts = packets_of([row(0.0), row(1.0), row(2.0, TUPLE_B)])
        pkts["timestamp"][1] = np.nan
        with pytest.raises(FlowExportError, match="packet 1 .*non-finite"):
            export_five_tuple_flows(pkts)

    def test_accepts_packet_trace(self, trace):
        flows = export_five_tuple_flows(trace, timeout=8.0)
        assert len(flows) > 0

    def test_keys_recoverable(self):
        pkts = packets_of([row(0.0), row(1.0)])
        flows = export_five_tuple_flows(pkts)
        key = flows.key_of(0)
        assert (key.src_addr, key.dst_addr, key.src_port, key.dst_port,
                key.protocol) == TUPLE_A
