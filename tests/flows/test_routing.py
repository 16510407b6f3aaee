"""Tests for repro.flows.routing: routable-prefix flows (section VI-A)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.flows import (
    PrefixKey,
    RoutingTable,
    export_routable_flows,
    parse_ipv4,
    routed_packets,
)
from repro.flows.exporter import export_prefix_flows
from repro.measurement import MeasurementEngine, reference_export_flows
from repro.netsim import AddressSpace
from repro.stats import RateSeries
from repro.trace import packets_from_columns


def simple_table():
    return RoutingTable(
        [
            PrefixKey(parse_ipv4("10.1.0.0") >> 16, 16),
            PrefixKey(parse_ipv4("10.1.2.0") >> 8, 24),  # more specific
            PrefixKey(parse_ipv4("10.2.0.0") >> 16, 16),
        ]
    )


class TestLookup:
    def test_longest_prefix_wins(self):
        table = simple_table()
        idx = table.lookup([parse_ipv4("10.1.2.99")])
        assert table.entry_of(int(idx[0])).length == 24

    def test_covering_supernet(self):
        table = simple_table()
        idx = table.lookup([parse_ipv4("10.1.3.99")])
        entry = table.entry_of(int(idx[0]))
        assert entry.length == 16
        assert str(entry) == "10.1.0.0/16"

    def test_no_match_is_minus_one(self):
        table = simple_table()
        idx = table.lookup([parse_ipv4("192.168.0.1")])
        assert idx[0] == -1
        with pytest.raises(ParameterError):
            table.entry_of(-1)

    def test_default_route_catches_all(self):
        table = RoutingTable([PrefixKey(0, 0)])
        idx = table.lookup([0, 2**32 - 1, parse_ipv4("8.8.8.8")])
        assert np.all(idx == 0)

    def test_vectorised_lookup(self):
        table = simple_table()
        rng = np.random.default_rng(0)
        addrs = (parse_ipv4("10.1.0.0") + rng.integers(0, 2**16, 5000)).astype(
            np.uint32
        )
        idx = table.lookup(addrs)
        assert idx.shape == (5000,)
        assert np.all(idx >= 0)

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ParameterError):
            RoutingTable([])
        with pytest.raises(ParameterError):
            RoutingTable([PrefixKey(1, 24), PrefixKey(1, 24)])

    def test_duplicate_error_names_the_entry(self):
        """The duplicate is rejected loudly, naming the offending prefix."""
        entry = PrefixKey(parse_ipv4("10.1.0.0") >> 16, 16)
        with pytest.raises(ParameterError, match=r"duplicate.*10\.1\.0\.0/16"):
            RoutingTable([PrefixKey(0, 0), entry, entry])

    def test_duplicate_detected_across_list_positions(self):
        """Duplicates are caught regardless of interleaved other entries."""
        with pytest.raises(ParameterError, match="duplicate"):
            RoutingTable(
                [
                    PrefixKey(parse_ipv4("10.0.0.0") >> 24, 8),
                    PrefixKey(parse_ipv4("10.1.0.0") >> 16, 16),
                    PrefixKey(parse_ipv4("10.0.0.0") >> 24, 8),
                ]
            )

    def test_same_prefix_different_length_is_not_a_duplicate(self):
        """/8 and /16 of the same network coexist (distinct FIB entries)."""
        table = RoutingTable(
            [
                PrefixKey(parse_ipv4("10.0.0.0") >> 24, 8),
                PrefixKey(parse_ipv4("10.0.0.0") >> 16, 16),
            ]
        )
        assert len(table) == 2


class TestLongestPrefixMatchEdgeCases:
    """The section VI-A FIB semantics, pinned at the corners."""

    def overlapping_table(self):
        """A full /8 -> /16 -> /24 -> /32 chain over one address, plus /0."""
        return RoutingTable(
            [
                PrefixKey(0, 0),  # default route
                PrefixKey(parse_ipv4("10.0.0.0") >> 24, 8),
                PrefixKey(parse_ipv4("10.1.0.0") >> 16, 16),
                PrefixKey(parse_ipv4("10.1.2.0") >> 8, 24),
                PrefixKey(parse_ipv4("10.1.2.3"), 32),
            ]
        )

    def test_most_specific_of_overlapping_chain_wins(self):
        table = self.overlapping_table()
        cases = {
            "10.1.2.3": 32,  # exact host route
            "10.1.2.4": 24,  # same /24, different host
            "10.1.3.4": 16,  # same /16, different /24
            "10.2.0.1": 8,  # same /8, different /16
            "11.0.0.1": 0,  # default route only
        }
        for address, expected_length in cases.items():
            idx = table.lookup([parse_ipv4(address)])
            assert table.entry_of(int(idx[0])).length == expected_length, address

    def test_default_route_never_returns_minus_one(self):
        table = self.overlapping_table()
        rng = np.random.default_rng(0)
        idx = table.lookup(rng.integers(0, 2**32, 10_000).astype(np.uint32))
        assert np.all(idx >= 0)

    def test_no_match_is_minus_one_without_default(self):
        table = RoutingTable(
            [PrefixKey(parse_ipv4("10.0.0.0") >> 24, 8)]
        )
        idx = table.lookup(
            [parse_ipv4("10.9.9.9"), parse_ipv4("11.0.0.1"),
             parse_ipv4("9.255.255.255")]
        )
        assert idx.tolist() == [0, -1, -1]

    def test_boundary_addresses_of_a_prefix(self):
        """First and last address of a /16 match it; neighbours do not."""
        table = RoutingTable(
            [PrefixKey(parse_ipv4("10.1.0.0") >> 16, 16)]
        )
        inside = table.lookup(
            [parse_ipv4("10.1.0.0"), parse_ipv4("10.1.255.255")]
        )
        outside = table.lookup(
            [parse_ipv4("10.0.255.255"), parse_ipv4("10.2.0.0")]
        )
        assert np.all(inside == 0)
        assert np.all(outside == -1)

    def test_empty_lookup(self):
        table = self.overlapping_table()
        idx = table.lookup(np.zeros(0, dtype=np.uint32))
        assert idx.size == 0


class TestSyntheticTable:
    def test_covers_address_space(self):
        space = AddressSpace(n_dst_prefixes=256)
        table = RoutingTable.synthetic(space, rng=0)
        _, dst, *_ = space.sample_endpoints(2000, rng=1)
        idx = table.lookup(dst)
        assert np.all(idx >= 0)  # default route guarantees coverage

    def test_coarse_aggregation_shrinks_table(self):
        space = AddressSpace(n_dst_prefixes=1024)
        fine = RoutingTable.synthetic(space, coarse_fraction=0.0, rng=0)
        coarse = RoutingTable.synthetic(space, coarse_fraction=0.9, rng=0)
        assert len(coarse) < len(fine)


class TestRoutableExport:
    def test_aggregates_at_least_as_much_as_slash24(self, trace):
        space = AddressSpace()  # the workload default
        table = RoutingTable.synthetic(space, coarse_fraction=0.5, rng=2)
        routable = export_routable_flows(trace, table, timeout=8.0)
        by24 = export_prefix_flows(trace, timeout=8.0)
        # /16 supernets merge several /24 streams: fewer or equal flows
        assert 0 < len(routable) <= len(by24)

    def test_unrouted_packets_dropped(self):
        pkts = packets_from_columns(
            [0.0, 1.0, 0.5, 1.5],
            [1, 1, 2, 2],
            [parse_ipv4("10.1.2.3")] * 2 + [parse_ipv4("99.9.9.9")] * 2,
            [1, 1, 2, 2],
            [80] * 4,
            [6] * 4,
            [500] * 4,
        )
        table = simple_table()  # does not cover 99.0.0.0
        flows = export_routable_flows(pkts, table, timeout=60.0)
        assert len(flows) == 1
        assert flows.total_bytes == 1000.0

    def test_routed_packets_rewrite_destination_to_entry(self):
        pkts = packets_from_columns(
            [0.0, 0.5, 1.0],
            [1, 2, 1],
            [parse_ipv4("10.1.2.3"), parse_ipv4("99.9.9.9"),
             parse_ipv4("10.2.7.7")],
            [1, 2, 1],
            [80] * 3,
            [6] * 3,
            [500] * 3,
        )
        routed = routed_packets(pkts, simple_table())
        np.testing.assert_array_equal(routed["timestamp"], [0.0, 1.0])
        np.testing.assert_array_equal(routed["dst_addr"], [1, 2])
        # the input is left alone
        assert pkts["dst_addr"][0] == parse_ipv4("10.1.2.3")

    def test_routed_measurement_matches_export(self, trace):
        """One pass over the routed packets gives the FIB-keyed flows
        and their filtered rate series (what a packet map used to do)."""
        table = RoutingTable.synthetic(AddressSpace(), rng=3)
        routed = routed_packets(trace, table)
        fib_key = dict(key="prefix", prefix_length=32, timeout=8.0)
        measured = MeasurementEngine().measure_trace(
            routed, delta=0.2, duration=trace.duration, **fib_key
        )
        flows = export_routable_flows(trace, table, timeout=8.0)
        np.testing.assert_array_equal(measured.flows.starts, flows.starts)
        np.testing.assert_array_equal(measured.flows.sizes, flows.sizes)
        np.testing.assert_array_equal(measured.flows.keys, flows.keys)
        _, packet_map = reference_export_flows(routed, **fib_key)
        expected = RateSeries.from_packets(
            routed[packet_map >= 0], 0.2, duration=trace.duration
        )
        np.testing.assert_array_equal(measured.series.values, expected.values)
