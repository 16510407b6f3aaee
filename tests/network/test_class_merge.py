"""The network engine's per-class measurement against one accountant per link.

The engine measures each demand once per class — one demand under one
keep rule, shared by every link that keeps the same packets of it — and
combines a link's classes afterwards.  These tests hold that combination
to the single-link accountant: a standalone
:class:`~repro.measurement.StreamingMeasurement` over the link's merged
packet trace (``keep_packets=True``) must give the same FlowSet, rate
series and raw rate series, bit for bit.  Where two demands' flow keys
can collide, the link's demands must form one class.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.measurement import StreamingMeasurement
from repro.netsim import AddressSpace, table_i_workload
from repro.network import (
    DemandMatrix,
    FlashCrowd,
    LinkOutage,
    NetworkDemand,
    NetworkEngine,
    Topology,
    abilene,
    parallel_paths,
)
from repro.network.demands import (
    demand_address_space,
    destination_keys_overlap,
)

DURATION = 10.0
DELTA = 0.2
TIMEOUT = 8.0


def workload(row, **space):
    wl = table_i_workload(row, duration=DURATION)
    if space:
        wl = dataclasses.replace(wl, address_space=AddressSpace(**space))
    return wl


def assert_matches_single_accountant(sim, **measure):
    """Every carried link equals one StreamingMeasurement over its packets."""
    for link in sim.simulated_links:
        oracle = StreamingMeasurement(
            delta=DELTA,
            duration=DURATION,
            timeout=TIMEOUT,
            keep_raw_series=link.raw_series is not None,
            **measure,
        )
        oracle.update(link.packets)
        flows, series = oracle.finalize()
        got = link.flows
        for column in ("starts", "ends", "sizes", "packet_counts"):
            assert np.array_equal(
                getattr(got, column), getattr(flows, column)
            ), (link.link, column)
        assert got.keys.tobytes() == flows.keys.tobytes(), link.link
        assert got.discarded_packets == flows.discarded_packets, link.link
        assert link.series.values.tobytes() == series.values.tobytes()
        if link.raw_series is not None:
            assert (
                link.raw_series.values.tobytes()
                == oracle.raw_series.values.tobytes()
            )
        assert link.packet_count == oracle.packet_count
        assert link.total_bytes == oracle.total_bytes


def shared_link_topology():
    """``a -> m`` and ``b -> m`` feed the shared link ``m -> c``."""
    topo = Topology()
    topo.add_link("a", "m", capacity_bps=50e6)
    topo.add_link("b", "m", capacity_bps=50e6)
    topo.add_link("m", "c", capacity_bps=50e6)
    return topo


@pytest.fixture
def fed(monkeypatch):
    """Count the packets handed to the measurement's shard steps."""
    counted = [0]
    shard_tasks = StreamingMeasurement.shard_tasks

    def counting(self, packets):
        counted[0] += len(packets)
        return shard_tasks(self, packets)

    monkeypatch.setattr(StreamingMeasurement, "shard_tasks", counting)
    return counted


class TestCrossLayerOracle:
    """ECMP + outage + flash crowd: classes with time-varying keep rules."""

    @staticmethod
    def simulate(backend, workers):
        demands = DemandMatrix([
            NetworkDemand("src", "dst", workload(4)),
            NetworkDemand("mid0", "dst", workload(6)),
            NetworkDemand("src", "mid1", workload(3)),
        ])
        events = [
            LinkOutage(("src", "mid0"), start=4.0, duration=3.0),
            FlashCrowd(1, start=2.0, duration=3.0, factor=4.0),
        ]
        return NetworkEngine(
            chunk=3000, workers=workers, backend=backend
        ).simulate(
            parallel_paths(2), demands, routing="ecmp", events=events,
            seed=11, delta=DELTA, timeout=TIMEOUT, detect_anomalies=True,
            keep_packets=True,
        )

    @pytest.mark.parametrize(
        "backend,workers", [("serial", 1), ("thread", 2), ("process", 4)]
    )
    def test_every_link_matches_one_accountant(self, backend, workers):
        sim = self.simulate(backend, workers)
        shared = [ls for ls in sim.simulated_links if ls.n_demands > 1]
        assert len(shared) == 2  # src -> mid1 and mid0 -> dst
        assert all(ls.raw_series is not None for ls in shared)
        assert_matches_single_accountant(sim)

    def test_links_share_classes(self, fed):
        """``src -> mid1 -> dst`` keeps one ECMP branch of demand 0 on
        both hops, so that class is measured once for two links."""
        sim = self.simulate("serial", 1)
        carried = sum(ls.packet_count for ls in sim.simulated_links)
        assert fed[0] < carried


class TestOncePerClass:
    """Each demand is measured once per keep rule, however many hops."""

    def test_packets_fed_to_the_accountant(self, fed):
        matrix = DemandMatrix([
            NetworkDemand("seattle", "newyork", workload(4)),
            NetworkDemand("losangeles", "atlanta", workload(3)),
            NetworkDemand("denver", "newyork", workload(6)),
        ])
        sim = NetworkEngine().simulate(abilene(), matrix, seed=1)
        carried = sum(link.packet_count for link in sim.simulated_links)
        # the links count every packet they carry (reports read that);
        # once per hop would feed all 24,031 to the accountant
        assert carried == 24_031
        assert fed[0] == 5_390


class TestCollisionGuard:
    """Demands whose keys can collide are measured as one class."""

    def test_short_prefix_key_merges_demands(self, fed):
        demands = DemandMatrix([
            NetworkDemand("a", "c", workload(4)),
            NetworkDemand("b", "c", workload(6)),
        ])
        sim = NetworkEngine(chunk=30_000).simulate(
            shared_link_topology(), demands, routing="shortest_path",
            seed=1, flow_kind="prefix", prefix_length=8, timeout=TIMEOUT,
            keep_packets=True,
        )
        # the shared link was measured as its own class
        assert fed[0] == sum(ls.packet_count for ls in sim.simulated_links)
        shared = sim[("m", "c")]
        # both demands' destinations lie in 10.0.0.0/8: one flow, as a
        # single accountant over the link reports it
        assert len(shared.flows) == 1
        assert_matches_single_accountant(
            sim, key="prefix", prefix_length=8
        )

    def test_oversized_population_overlaps_next_block(self, fed):
        demands = DemandMatrix([
            NetworkDemand("a", "c", workload(4, n_dst_prefixes=8192)),
            NetworkDemand("b", "c", workload(6, n_dst_prefixes=8192)),
        ])
        sim = NetworkEngine(chunk=30_000).simulate(
            shared_link_topology(), demands, routing="shortest_path",
            seed=1, timeout=TIMEOUT, keep_packets=True,
        )
        assert sim[("m", "c")].n_demands == 2
        assert fed[0] == sum(ls.packet_count for ls in sim.simulated_links)
        assert_matches_single_accountant(sim)


class TestDestinationKeysOverlap:
    def test_default_tiles_are_disjoint(self):
        spaces = [demand_address_space(i) for i in range(16)]
        assert not destination_keys_overlap(spaces)
        assert not destination_keys_overlap(
            spaces, key="prefix", prefix_length=12
        )

    def test_prefix_coarser_than_the_tile_overlaps(self):
        spaces = [demand_address_space(i) for i in range(2)]
        assert destination_keys_overlap(
            spaces, key="prefix", prefix_length=11
        )

    def test_oversized_population_overlaps(self):
        template = AddressSpace(n_dst_prefixes=4097)
        spaces = [demand_address_space(i, template) for i in range(2)]
        assert destination_keys_overlap(spaces)

    @staticmethod
    def block(n_dst_prefixes, dst_base):
        return AddressSpace(
            n_dst_prefixes=n_dst_prefixes, n_hot_prefixes=0,
            dst_base=dst_base,
        )

    def test_unaligned_base_rounds_down_to_its_slash_24(self):
        below = self.block(1, 0x0A0000FF)
        above = self.block(1, 0x0A000100)
        assert not destination_keys_overlap([below, above])
        # two /24s from a base inside 10.0.0.0/24 reach 10.0.1.0/24
        wide = self.block(2, 0x0A0000FF)
        assert destination_keys_overlap([wide, above])

    def test_block_wrapping_past_the_top_of_the_space(self):
        top = self.block(2, 0xFFFFFF00)
        assert destination_keys_overlap([top, self.block(1, 0)])
        assert not destination_keys_overlap([top, self.block(1, 0x100)])
