"""Tests for repro.netsim.link and workloads: end-to-end trace synthesis."""

from __future__ import annotations

import numpy as np
import pytest

from repro import calibration
from repro._util import as_rng
from repro.exceptions import ParameterError
from repro.flows import PROTO_TCP, PROTO_UDP, export_five_tuple_flows
from repro.netsim import (
    DEFAULT_SCALE,
    OC12_BPS,
    TABLE_I_ROWS,
    LinkWorkload,
    PoissonArrivals,
    TcpParameters,
    table_i_workload,
    table_i_workloads,
)
from repro.netsim.sizes import (
    BoundedPareto,
    Constant,
    Empirical,
    LogNormal,
    Mixture,
)
from repro.netsim.workloads import (
    _remembered_wire_mean,
    _wire_mean,
    wire_bytes_per_flow,
    wire_sizes,
)
from repro.synthesis import SynthesisEngine


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
            SynthesisEngine().synthesize(
                0,
                arrivals=PoissonArrivals(1e-6),
                size_dist=BoundedPareto(1.2, 2e3, 2e6),
                duration=0.001,
                link_capacity=1e7,
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

    #: Each Table I row's arrival rate, pinned bitwise: it derives from
    #: the wire-size formula, so any drift in that formula shows here.
    ARRIVAL_RATES = (
        "0x1.e7298d62134b2p+6", "0x1.68dc68ba6d1b4p+6",
        "0x1.06a068a9cf67cp+7", "0x1.a0feb1e87e141p+3",
        "0x1.10a68804526f9p+6", "0x1.76e4fb05f1597p+6",
        "0x1.20b053c857490p+5",
    )

    @pytest.mark.parametrize("row", range(len(TABLE_I_ROWS)))
    def test_arrival_rate_bitwise_pinned(self, row):
        rate = table_i_workload(row).arrival_rate
        assert rate == float.fromhex(self.ARRIVAL_RATES[row])

    def test_wire_mean_is_the_mean_of_wire_sizes(self):
        workload = table_i_workload(0)
        sizes = workload.size_dist.rvs(size=50_000, random_state=as_rng(12345))
        assert workload.mean_wire_bytes_per_flow == float(
            np.mean(wire_sizes(sizes, workload.tcp_params))
        )
        assert calibration.wire_sizes is wire_sizes  # one formula

    @pytest.fixture
    def mixture_draws(self, monkeypatch):
        """Count the calls of ``Mixture.rvs`` from here on."""
        calls = []
        rvs = Mixture.rvs

        def counting(law, *args, **kwargs):
            calls.append(law)
            return rvs(law, *args, **kwargs)

        monkeypatch.setattr(Mixture, "rvs", counting)
        return calls

    def test_equal_laws_share_one_wire_mean_estimate(self, mixture_draws):
        calls = mixture_draws
        _remembered_wire_mean.cache_clear()
        components = [(0.3, Constant(700.0)), (0.7, LogNormal(4321.0, 0.4))]
        first, second = Mixture(components), Mixture(components)
        assert first is not second and first == second
        a = wire_bytes_per_flow(first)
        b = wire_bytes_per_flow(second)
        assert len(calls) == 1
        assert a == b == _wire_mean(second, TcpParameters())
        assert len(calls) == 2  # the direct estimate above

    def test_default_law_is_estimated_once(self, request):
        expected = table_i_workload(0).arrival_rate  # warms the memo
        calls = request.getfixturevalue("mixture_draws")
        rates = [table_i_workload(row).arrival_rate for row in range(3)]
        assert calls == []
        assert rates[0] == expected

    def test_unhashable_law_is_estimated_every_call(self):
        law = Empirical([300.0, 2_000.0, 90_000.0])
        assert wire_bytes_per_flow(law) == _wire_mean(law, TcpParameters())
        # nothing remembered: a changed law gives its own mean
        law.values = np.array([5_000.0])
        assert wire_bytes_per_flow(law) == 5_000.0 + 4 * 40.0
        mixed = Mixture([(0.5, law), (0.5, Constant(1_000.0))])
        assert wire_bytes_per_flow(mixed) == _wire_mean(
            mixed, TcpParameters()
        )

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
