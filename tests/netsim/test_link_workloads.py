"""Tests for repro.netsim.link and workloads: end-to-end trace synthesis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.flows import PROTO_TCP, PROTO_UDP, export_five_tuple_flows
from repro.netsim import (
    DEFAULT_SCALE,
    OC12_BPS,
    TABLE_I_ROWS,
    LinkWorkload,
    PoissonArrivals,
    TcpParameters,
    multi_link_rate_series,
    synthesize_link_trace,
    synthesize_scenario,
    table_i_workload,
    table_i_workloads,
)
from repro.netsim.sizes import BoundedPareto


class TestSynthesis:
    def test_reproducible_with_seed(self, synthesis):
        from repro.netsim import medium_utilization_link

        again = medium_utilization_link(duration=60.0).synthesize(seed=11)
        np.testing.assert_array_equal(
            again.trace.packets, synthesis.trace.packets
        )

    def test_trace_sorted_and_bounded(self, trace):
        assert trace.is_sorted()
        assert trace.packets["timestamp"].max() < trace.duration

    def test_utilization_near_target(self):
        from repro.netsim import medium_utilization_link

        workload = medium_utilization_link(duration=120.0)
        measured = workload.synthesize(seed=3).trace
        # truncation at the capture end loses a little volume
        assert measured.mean_rate_bps == pytest.approx(
            workload.target_mean_rate_bps, rel=0.15
        )

    def test_protocol_mix_present(self, trace):
        protos = set(np.unique(trace.packets["protocol"]))
        assert PROTO_TCP in protos
        assert PROTO_UDP in protos

    def test_ground_truth_flows_recoverable(self, synthesis):
        """Exported flow count is near the generated flow count.

        Ground truth includes warm-up flows (some ending before the
        capture), and discards/truncation shrink the exported side, so the
        comparison is a band, not an equality.
        """
        flows = export_five_tuple_flows(synthesis.trace, timeout=8.0)
        assert 0.4 * synthesis.n_flows < len(flows) <= synthesis.n_flows

    def test_zero_flow_error(self):
        with pytest.raises(ParameterError):
            synthesize_link_trace(
                arrivals=PoissonArrivals(1e-6),
                size_dist=BoundedPareto(1.2, 2e3, 2e6),
                duration=0.001,
                link_capacity=1e7,
                seed=0,
            )


class TestWorkloadPresets:
    def test_seven_table_i_rows(self):
        workloads = table_i_workloads()
        assert len(workloads) == 7
        targets = [w.target_mean_rate_bps / DEFAULT_SCALE / 1e6 for w in workloads]
        np.testing.assert_allclose(
            targets, [r.avg_utilization_mbps for r in TABLE_I_ROWS]
        )

    def test_scaled_capacity(self):
        workload = table_i_workload(0, scale=1 / 64)
        assert workload.link_capacity_bps == pytest.approx(OC12_BPS / 64)

    def test_arrival_rate_consistent_with_target(self):
        workload = table_i_workload(1)
        implied = workload.arrival_rate * workload.mean_wire_bytes_per_flow
        assert 8.0 * implied == pytest.approx(workload.target_mean_rate_bps)

    def test_utilization_below_half(self):
        for workload in table_i_workloads():
            assert workload.target_utilization < 0.5

    def test_with_duration(self):
        workload = table_i_workload(0).with_duration(33.0)
        assert workload.duration == 33.0

    def test_rejects_overloaded_target(self):
        with pytest.raises(ParameterError):
            LinkWorkload(
                name="bad", target_mean_rate_bps=1e9, link_capacity_bps=1e6
            )

    def test_custom_arrivals_override(self):
        workload = table_i_workload(3, duration=20.0)
        workload.arrivals = PoissonArrivals(workload.arrival_rate * 2)
        synthesis = workload.synthesize(seed=0)
        assert synthesis.trace.mean_rate_bps > workload.target_mean_rate_bps

    def test_tcp_params_respected(self):
        workload = table_i_workload(3, duration=20.0)
        workload.tcp_params = TcpParameters(mss=500)
        trace = workload.synthesize(seed=0).trace
        tcp = trace.packets["protocol"] == PROTO_TCP
        assert trace.packets["size"][tcp].max() <= 500 + 40


class TestMultiLinkScenarios:
    """Engine-parallel fan-out across independent links."""

    def test_synthesize_scenario_worker_invariant(self):
        workloads = [w.with_duration(10.0) for w in table_i_workloads()[:2]]
        serial = synthesize_scenario(workloads, seed=3, workers=1)
        threaded = synthesize_scenario(workloads, seed=3, workers=4)
        assert len(serial) == 2
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(a.trace.packets, b.trace.packets)

    def test_synthesize_scenario_seeds_links_by_position(self):
        # link i draws from SeedSequence(seed) child i, whatever the
        # worker count, and results come back in workload order
        workloads = [w.with_duration(5.0) for w in table_i_workloads()[:3]]
        children = np.random.SeedSequence(5).spawn(len(workloads))
        expected = [
            w.synthesize(seed=np.random.default_rng(c)).trace.packets
            for w, c in zip(workloads, children)
        ]
        for workers in (1, 4):
            got = synthesize_scenario(workloads, seed=5, workers=workers)
            for packets, link in zip(expected, got):
                np.testing.assert_array_equal(link.trace.packets, packets)

    def test_synthesize_scenario_links_are_independent(self):
        workloads = [w.with_duration(10.0) for w in table_i_workloads()[:2]]
        a, b = synthesize_scenario(workloads, seed=3)
        assert not np.array_equal(
            a.trace.packets["timestamp"], b.trace.packets["timestamp"]
        )

    def test_multi_link_rate_series_deterministic(self):
        workloads = [w.with_duration(20.0) for w in table_i_workloads()[:3]]
        from repro.core import TriangularShot

        serial = multi_link_rate_series(
            workloads, TriangularShot(), delta=0.5, seed=2, workers=1
        )
        threaded = multi_link_rate_series(
            workloads, TriangularShot(), delta=0.5, seed=2, workers=4,
            chunk=5.0,
        )
        assert len(serial) == 3
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(a.values, b.values)

    def test_multi_link_rate_series_hits_targets(self):
        workloads = [w.with_duration(60.0) for w in table_i_workloads()[:2]]
        from repro.core import RectangularShot

        series = multi_link_rate_series(
            workloads, RectangularShot(), delta=0.5, seed=0
        )
        for workload, link_series in zip(workloads, series):
            # model ensemble carries payload bytes (no per-packet headers),
            # so the fluid mean undershoots the wire-rate target slightly
            target = workload.target_mean_rate_bps / 8.0
            assert link_series.mean == pytest.approx(target, rel=0.2)

    def test_empty_scenario_rejected(self):
        with pytest.raises(ParameterError):
            synthesize_scenario([])
