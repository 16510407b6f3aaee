"""Tests for repro.network.events: outage reroute + flash crowds."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.netsim import table_i_workload
from repro.network import (
    DemandMatrix,
    FlashCrowd,
    LinkOutage,
    NetworkDemand,
    NetworkEngine,
    ShortestPathRouting,
    Topology,
    line,
    parallel_paths,
    routing_timeline,
)

DURATION = 12.0


def workload(row=4):
    return table_i_workload(row, duration=DURATION)


def two_path_matrix():
    return DemandMatrix([NetworkDemand("src", "dst", workload())])


class TestRoutingTimeline:
    def test_no_events_one_segment(self):
        timeline = routing_timeline(
            parallel_paths(2), two_path_matrix(), ShortestPathRouting()
        )
        (segments,) = timeline
        assert len(segments) == 1
        assert (segments[0].t0, segments[0].t1) == (0.0, DURATION)

    def test_outage_splits_into_three_segments(self):
        outage = LinkOutage(("src", "mid0"), start=4.0, duration=4.0)
        (segments,) = routing_timeline(
            parallel_paths(2), two_path_matrix(), ShortestPathRouting(),
            [outage],
        )
        assert [(s.t0, s.t1) for s in segments] == [
            (0.0, 4.0), (4.0, 8.0), (8.0, DURATION),
        ]
        before, during, after = segments
        assert before.routed == after.routed
        assert during.routed is not None
        assert ("src", "mid0") not in during.routed.links()

    def test_unaffected_demand_keeps_route(self):
        topo = parallel_paths(2)
        demands = DemandMatrix(
            [
                NetworkDemand("src", "dst", workload()),
                NetworkDemand("mid1", "dst", workload()),
            ]
        )
        outage = LinkOutage(("src", "mid0"), start=4.0, duration=4.0)
        timeline = routing_timeline(
            topo, demands, ShortestPathRouting(), [outage]
        )
        # demand 1 never touches the failed fibre: identical everywhere
        assert all(
            segment.routed == timeline[1][0].routed
            for segment in timeline[1]
        )

    def test_disconnection_blackholes(self):
        topo = line(2)
        demands = DemandMatrix([NetworkDemand("r0", "r1", workload())])
        outage = LinkOutage(("r0", "r1"), start=4.0, duration=4.0)
        (segments,) = routing_timeline(
            topo, demands, ShortestPathRouting(), [outage]
        )
        assert segments[1].routed is None

    def test_unknown_link_rejected(self):
        with pytest.raises(Exception, match="no link"):
            routing_timeline(
                line(2), two_path_matrix_for_line(), ShortestPathRouting(),
                [LinkOutage(("r0", "nope"), start=1.0, duration=1.0)],
            )


def two_path_matrix_for_line():
    return DemandMatrix([NetworkDemand("r0", "r1", workload())])


class TestOutageSimulation:
    @pytest.fixture(scope="class")
    def outage_sim(self):
        events = [LinkOutage(("src", "mid0"), start=4.0, duration=4.0)]
        return NetworkEngine(chunk=20_000).simulate(
            parallel_paths(2), two_path_matrix(),
            routing="shortest_path", events=events, seed=3,
            detect_anomalies=True, keep_packets=True,
        )

    def test_failed_link_is_silent_during_window(self, outage_sim):
        failed = outage_sim[("src", "mid0")]
        ts = failed.packets["timestamp"]
        assert not np.any((ts >= 4.0) & (ts < 8.0))
        assert np.any(ts < 4.0) and np.any(ts >= 8.0)

    def test_backup_link_carries_only_the_window(self, outage_sim):
        backup = outage_sim[("src", "mid1")]
        ts = backup.packets["timestamp"]
        assert backup.packet_count > 0
        assert np.all((ts >= 4.0) & (ts < 8.0))

    def test_rerouted_packets_conserved(self, outage_sim):
        """Nothing is lost: reroute moves packets, never drops them."""
        baseline = NetworkEngine(chunk=20_000).simulate(
            parallel_paths(2), two_path_matrix(),
            routing="shortest_path", seed=3,
        )
        total = (
            outage_sim[("src", "mid0")].packet_count
            + outage_sim[("src", "mid1")].packet_count
        )
        assert total == baseline[("src", "mid0")].packet_count

    def test_detector_flags_the_drop(self, outage_sim):
        drops = [
            event
            for event in outage_sim[("src", "mid0")].anomalies
            if event.kind == "drop"
        ]
        assert drops, "the failed link's rate drop must be detected"
        delta = outage_sim[("src", "mid0")].delta
        assert any(
            event.start_time(delta) <= 4.5
            and event.start_time(delta) + event.n_samples * delta >= 7.5
            for event in drops
        )

    def test_outage_elsewhere_leaves_unaffected_demand_bitwise_alone(self):
        """An outage splits every timeline at its breakpoints, but a
        demand that never touches the failed fibre coalesces back to one
        segment and streams through untouched (bitwise)."""
        topo = parallel_paths(2)
        topo.add_link("a", "b", capacity_bps=20e6)
        demands = DemandMatrix(
            [
                NetworkDemand("src", "dst", workload()),
                NetworkDemand("a", "b", workload(6)),
            ]
        )
        base = NetworkEngine(chunk=20_000).simulate(
            topo, demands, routing="shortest_path", seed=3,
            keep_packets=True,
        )
        events = [LinkOutage(("src", "mid0"), start=4.0, duration=4.0)]
        with_outage = NetworkEngine(chunk=20_000).simulate(
            topo, demands, routing="shortest_path", events=events, seed=3,
            keep_packets=True,
        )
        assert base[("a", "b")].packet_count > 0
        assert np.array_equal(
            base[("a", "b")].packets, with_outage[("a", "b")].packets
        )

    def test_blackhole_drops_packets(self):
        events = [LinkOutage(("r0", "r1"), start=4.0, duration=4.0)]
        sim = NetworkEngine(chunk=20_000).simulate(
            line(2), two_path_matrix_for_line(), events=events, seed=3,
            keep_packets=True,
        )
        ts = sim[("r0", "r1")].packets["timestamp"]
        assert not np.any((ts >= 4.0) & (ts < 8.0))

    def test_invariant_to_chunk_and_workers(self, outage_sim):
        events = [LinkOutage(("src", "mid0"), start=4.0, duration=4.0)]
        again = NetworkEngine(chunk=3000, workers=3).simulate(
            parallel_paths(2), two_path_matrix(),
            routing="shortest_path", events=events, seed=3,
            detect_anomalies=True, keep_packets=True,
        )
        for link in [("src", "mid0"), ("src", "mid1")]:
            assert np.array_equal(
                outage_sim[link].packets, again[link].packets
            )
            assert outage_sim[link].anomalies == again[link].anomalies


class TestFlashCrowd:
    def test_rate_rises_inside_the_window(self):
        events = [FlashCrowd(0, start=4.0, duration=4.0, factor=6.0)]
        sim = NetworkEngine(chunk=20_000).simulate(
            line(2), two_path_matrix_for_line(), events=events, seed=3,
            detect_anomalies=True, keep_packets=True,
        )
        link = sim[("r0", "r1")]
        ts = link.packets["timestamp"]
        inside = np.count_nonzero((ts >= 4.0) & (ts < 8.0)) / 4.0
        outside = np.count_nonzero(ts < 4.0) / 4.0
        assert inside > 2.0 * outside
        assert any(event.kind == "flood" for event in link.anomalies)

    def test_untargeted_demand_untouched(self):
        topo = Topology()
        topo.add_link("a", "x", capacity_bps=20e6)
        topo.add_link("b", "x", capacity_bps=20e6)
        demands = DemandMatrix(
            [
                NetworkDemand("a", "x", workload()),
                NetworkDemand("b", "x", workload(6)),
            ]
        )
        base = NetworkEngine().simulate(topo, demands, seed=1, keep_packets=True)
        events = [FlashCrowd(0, start=4.0, duration=4.0, factor=5.0)]
        crowd = NetworkEngine().simulate(
            topo, demands, events=events, seed=1, keep_packets=True
        )
        assert np.array_equal(
            base[("b", "x")].packets, crowd[("b", "x")].packets
        )
        assert crowd[("a", "x")].packet_count > base[("a", "x")].packet_count

    def test_stacked_crowds_on_one_demand_compose(self):
        """Two windows on one demand both amplify (factors multiply on
        overlap) instead of raising a misleading Poisson-only error."""
        events = [
            FlashCrowd(0, start=2.0, duration=3.0, factor=5.0),
            FlashCrowd(0, start=7.0, duration=3.0, factor=5.0),
        ]
        sim = NetworkEngine(chunk=20_000).simulate(
            line(2), two_path_matrix_for_line(), events=events, seed=3,
            keep_packets=True,
        )
        ts = sim[("r0", "r1")].packets["timestamp"]
        first = np.count_nonzero((ts >= 2.0) & (ts < 5.0)) / 3.0
        second = np.count_nonzero((ts >= 7.0) & (ts < 10.0)) / 3.0
        # the pre-burst rate is the clean baseline (flows started inside
        # a burst keep transmitting into the gap between windows)
        calm = np.count_nonzero(ts < 2.0) / 2.0
        assert first > 2.0 * calm
        assert second > 2.0 * calm

    def test_crowded_demand_runs_on_the_process_backend(self):
        """The crowded intensity pickles, so its cell tasks can run in
        worker processes — with the serial run's packets."""
        events = [FlashCrowd(0, start=2.0, duration=3.0, factor=5.0)]
        runs = [
            NetworkEngine(workers=workers, backend=backend).simulate(
                line(2), two_path_matrix_for_line(), events=events, seed=3,
                keep_packets=True,
            )
            for workers, backend in ((1, "serial"), (2, "process"))
        ]
        serial, process = (run[("r0", "r1")].packets for run in runs)
        assert np.array_equal(serial, process)

    def test_out_of_range_demand_rejected(self):
        events = [FlashCrowd(5, start=1.0, duration=1.0)]
        with pytest.raises(ParameterError, match="targets demand 5"):
            NetworkEngine().simulate(
                line(2), two_path_matrix_for_line(), events=events
            )

    def test_validation(self):
        with pytest.raises(ParameterError):
            FlashCrowd(0, start=-1.0, duration=1.0)
        with pytest.raises(ParameterError):
            FlashCrowd(0, start=0.0, duration=0.0)
        with pytest.raises(ParameterError):
            LinkOutage(("a", "b"), start=0.0, duration=-1.0)
