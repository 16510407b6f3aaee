"""Tests for repro.network.engine: the whole-backbone simulation.

The acceptance anchors:

* a one-node-pair topology reproduces the single-link engines
  (``SynthesisEngine.synthesize`` / ``StreamingMeasurement``) bit for bit for
  any ``chunk``/``workers``;
* per-link outputs are bitwise invariant to ``chunk``/``workers``;
* ECMP flow pinning is deterministic under a fixed seed, conserves the
  demand's packets across branches, and keeps a demand's flows identical
  on every link of their path.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.synthesis.engine as synthesis_engine
from repro.exceptions import ParameterError
from repro.measurement import MeasurementEngine
from repro.netsim import LinkWorkload, table_i_workload
from repro.network import (
    DemandMatrix,
    NetworkDemand,
    NetworkEngine,
    Topology,
    abilene,
    line,
    parallel_paths,
)
from repro.pipeline import default_registry, run_scenario

DURATION = 10.0


def workload(row=4, duration=DURATION):
    return table_i_workload(row, duration=duration)


@pytest.fixture(scope="module")
def one_link_simulation():
    demands = DemandMatrix(
        [NetworkDemand("r0", "r1", workload(), seed=5)]
    )
    return NetworkEngine(chunk=1234).simulate(
        line(2), demands, seed=9, keep_packets=True
    )


class TestSingleLinkDegeneracy:
    """One demand on one link == the single-link engines, bitwise."""

    def test_trace_matches_single_link_synthesis(self, one_link_simulation):
        link = one_link_simulation[("r0", "r1")]
        reference = workload().synthesize(seed=5)
        assert np.array_equal(link.packets, reference.trace.packets)

    def test_flows_and_series_match_streaming_measurement(
        self, one_link_simulation
    ):
        link = one_link_simulation[("r0", "r1")]
        measured = MeasurementEngine().measure_chunks(
            workload().synthesize_chunks(seed=5, chunk=1234),
            delta=0.2,
            timeout=8.0,
        )
        assert np.array_equal(link.flows.starts, measured.flows.starts)
        assert np.array_equal(link.flows.ends, measured.flows.ends)
        assert np.array_equal(link.flows.sizes, measured.flows.sizes)
        assert np.array_equal(
            link.flows.packet_counts, measured.flows.packet_counts
        )
        assert np.array_equal(link.series.values, measured.series.values)

    @pytest.mark.parametrize("chunk,workers", [(500, 1), (50_000, 3)])
    def test_any_chunk_workers(self, one_link_simulation, chunk, workers):
        demands = DemandMatrix(
            [NetworkDemand("r0", "r1", workload(), seed=5)]
        )
        other = NetworkEngine(chunk=chunk, workers=workers).simulate(
            line(2), demands, seed=9, keep_packets=True
        )
        base = one_link_simulation[("r0", "r1")]
        varied = other[("r0", "r1")]
        assert np.array_equal(base.packets, varied.packets)
        assert np.array_equal(base.series.values, varied.series.values)
        assert np.array_equal(base.flows.starts, varied.flows.starts)

    def test_reverse_link_is_idle(self, one_link_simulation):
        reverse = one_link_simulation[("r1", "r0")]
        assert reverse.n_demands == 0
        assert reverse.packet_count == 0
        assert reverse.flows is None


@pytest.fixture(scope="module")
def ecmp_simulation():
    demands = DemandMatrix([NetworkDemand("src", "dst", workload())])
    return NetworkEngine(chunk=20_000, workers=2).simulate(
        parallel_paths(2), demands, routing="ecmp", seed=3,
        keep_packets=True,
    )


class TestECMP:
    def test_flows_split_across_both_branches(self, ecmp_simulation):
        up0 = ecmp_simulation[("src", "mid0")]
        up1 = ecmp_simulation[("src", "mid1")]
        assert up0.packet_count > 0 and up1.packet_count > 0

    def test_packet_conservation(self, ecmp_simulation):
        """Both ECMP branches together carry exactly the demand."""
        demands = DemandMatrix([NetworkDemand("r0", "r1", workload())])
        whole = NetworkEngine().simulate(line(2), demands, seed=3)
        total = (
            ecmp_simulation[("src", "mid0")].packet_count
            + ecmp_simulation[("src", "mid1")].packet_count
        )
        assert total == whole[("r0", "r1")].packet_count

    def test_hashing_deterministic_under_fixed_seed(self, ecmp_simulation):
        demands = DemandMatrix([NetworkDemand("src", "dst", workload())])
        again = NetworkEngine(chunk=4096, workers=1).simulate(
            parallel_paths(2), demands, routing="ecmp", seed=3,
            keep_packets=True,
        )
        for link in [("src", "mid0"), ("src", "mid1")]:
            assert np.array_equal(
                ecmp_simulation[link].packets, again[link].packets
            )

    def test_different_seed_different_split(self):
        demands = DemandMatrix([NetworkDemand("src", "dst", workload())])
        a = NetworkEngine().simulate(
            parallel_paths(2), demands, routing="ecmp", seed=3
        )
        b = NetworkEngine().simulate(
            parallel_paths(2), demands, routing="ecmp", seed=4
        )
        # different salt (and demand seed): a different flow split
        assert (
            a[("src", "mid0")].packet_count
            != b[("src", "mid0")].packet_count
        )

    def test_path_consistency_upstream_equals_downstream(
        self, ecmp_simulation
    ):
        """A flow pinned to mid0 appears identically on both hops."""
        assert np.array_equal(
            ecmp_simulation[("src", "mid0")].packets,
            ecmp_simulation[("mid0", "dst")].packets,
        )


class TestSuperposition:
    def test_shared_link_superposes_demands(self):
        topo = Topology()
        topo.add_link("a", "m", capacity_bps=50e6)
        topo.add_link("b", "m", capacity_bps=50e6)
        topo.add_link("m", "c", capacity_bps=50e6)
        demands = DemandMatrix(
            [
                NetworkDemand("a", "c", workload(4)),
                NetworkDemand("b", "c", workload(6)),
            ]
        )
        sim = NetworkEngine(chunk=30_000).simulate(
            topo, demands, routing="shortest_path", seed=1
        )
        shared = sim[("m", "c")]
        assert shared.n_demands == 2
        assert (
            shared.packet_count
            == sim[("a", "m")].packet_count + sim[("b", "m")].packet_count
        )
        # the merged stream is time-ordered: measurement would have
        # raised otherwise; spot-check the report too
        entry = shared.report()
        assert entry.n_demands == 2
        assert entry.packets == shared.packet_count

    def test_demand_populations_disjoint_on_shared_link(self):
        """The engine tiles destination blocks: no cross-demand 5-tuple
        collisions on a superposed link, whichever way the matrix was
        built."""
        topo = Topology()
        topo.add_link("a", "m", capacity_bps=50e6)
        topo.add_link("b", "m", capacity_bps=50e6)
        topo.add_link("m", "c", capacity_bps=50e6)
        demands = DemandMatrix(
            [
                NetworkDemand("a", "c", workload(4)),
                NetworkDemand("b", "c", workload(6)),
            ]
        )
        sim = NetworkEngine(chunk=30_000).simulate(
            topo, demands, routing="shortest_path", seed=1,
            keep_packets=True,
        )
        dst_a = set(np.unique(sim[("a", "m")].packets["dst_addr"]))
        dst_b = set(np.unique(sim[("b", "m")].packets["dst_addr"]))
        assert dst_a and dst_b
        assert not (dst_a & dst_b)

    def test_demand_streams_identical_on_every_link(self):
        """Re-synthesis per link decoheres nothing: same seed, same flows."""
        demands = DemandMatrix([NetworkDemand("r0", "r2", workload())])
        sim = NetworkEngine(chunk=10_000, workers=2).simulate(
            line(3), demands, seed=2, keep_packets=True
        )
        assert np.array_equal(
            sim[("r0", "r1")].packets, sim[("r1", "r2")].packets
        )


class TestReports:
    def test_report_shape(self, ecmp_simulation):
        report = ecmp_simulation.report()
        assert report.routing == "ecmp"
        assert report.n_demands == 1
        data = report.to_dict()
        assert data["topology"] == {"routers": 4, "links": 8}
        assert len(data["links"]) == 8
        carrying = [e for e in data["links"] if e["n_demands"]]
        assert len(carrying) == 4
        for entry in carrying:
            assert entry["packets"] > 0
            assert 0.0 < entry["utilization"] < 1.0
            assert entry["measured_cov"] is not None
            assert entry["required_capacity_bps"] > 0.0

    def test_provisioning_verdict_flags_thin_links(self):
        topo = Topology()
        # a link far too thin for the demand's epsilon-quantile need
        topo.add_link("a", "b", capacity_bps=1.1e6)
        demands = DemandMatrix(
            [
                NetworkDemand(
                    "a", "b",
                    table_i_workload(3, duration=DURATION),
                )
            ]
        )
        sim = NetworkEngine().simulate(topo, demands, seed=0)
        report = sim.report()
        assert [e.link for e in report.overloaded_links] == [("a", "b")]

    def test_json_round_trip(self, ecmp_simulation):
        import json

        payload = json.dumps(ecmp_simulation.report().to_dict())
        assert json.loads(payload)["routing"] == "ecmp"


class TestValidation:
    def test_empty_demand_matrix_rejected(self):
        with pytest.raises(ParameterError, match="must not be empty"):
            NetworkEngine().simulate(line(2), DemandMatrix())

    def test_unknown_endpoint_rejected(self):
        demands = DemandMatrix([NetworkDemand("r0", "nope", workload())])
        from repro.exceptions import TopologyError

        with pytest.raises(TopologyError, match="unknown router"):
            NetworkEngine().simulate(line(2), demands)

    def test_mismatched_durations_rejected(self):
        demands = DemandMatrix(
            [
                NetworkDemand("r0", "r1", workload(duration=10.0)),
                NetworkDemand("r1", "r0", workload(duration=20.0)),
            ]
        )
        with pytest.raises(ParameterError, match="share one duration"):
            NetworkEngine().simulate(line(2), demands)

    def test_bad_engine_knobs_rejected(self):
        with pytest.raises(ParameterError):
            NetworkEngine(chunk=0)
        with pytest.raises(ParameterError):
            NetworkEngine(workers=0)


class TestOncePerDemand:
    """Each demand is synthesised once per run, however many hops."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"cells": 0, "arrival_rate": 0}
        cell = synthesis_engine.synthesize_cell
        rate = LinkWorkload.arrival_rate.fget

        def counting_cell(*args):
            counts["cells"] += 1
            return cell(*args)

        def counting_rate(workload):
            counts["arrival_rate"] += 1
            return rate(workload)

        monkeypatch.setattr(synthesis_engine, "synthesize_cell", counting_cell)
        monkeypatch.setattr(LinkWorkload, "arrival_rate", property(counting_rate))
        return counts

    def test_cells_and_arrival_rates_once_per_demand(self, counts):
        matrix = DemandMatrix([
            NetworkDemand("seattle", "newyork", workload(4)),
            NetworkDemand("losangeles", "atlanta", workload(3)),
            NetworkDemand("denver", "newyork", workload(6)),
        ])
        expected = sum(
            d.workload.synthesize_chunks(seed=0).plan.n_cells for d in matrix
        )
        counts.update(cells=0, arrival_rate=0)
        sim = NetworkEngine().simulate(abilene(), matrix, seed=1)
        # the demands light up more links than there are demands
        assert len(sim.simulated_links) > len(matrix)
        assert counts == {"cells": expected, "arrival_rate": len(matrix)}

    def test_sweep_abilene_cell_count(self, counts):
        result = run_scenario(
            default_registry().get("abilene-single-failure-2x")
        )
        report = result.sweep.result.report
        # the 14 simulated cells share 12 (demand, factor) realisations:
        # 6 demands x {1.5, 2.0}, each 6 arrival cells (60 s + 30 s
        # warm-up in 15 s cells); once per cell would be 504, once per
        # hop 2,268
        assert report.n_simulated == 14
        assert {cell.factor for cell in report.cells
                if cell.method == "simulated"} == {1.5, 2.0}
        assert counts["cells"] == 2 * 6 * 6 == 72
