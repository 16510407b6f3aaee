"""Tests for the pipeline's network layer: spec, stage, registry, quick mode."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.pipeline import (
    DemandSpec,
    ExecutionSpec,
    NETWORK_STAGES,
    NetworkEventSpec,
    NetworkSpec,
    ScenarioSpec,
    TopologySpec,
    ValidationSpec,
    apply_quick_mode,
    default_registry,
    run_scenario,
)

DURATION = 8.0


def network_spec(**overrides) -> ScenarioSpec:
    kwargs = dict(
        topology=TopologySpec(preset="parallel-paths", size=2),
        demands=(DemandSpec("src", "dst", preset="medium"),),
        routing="ecmp",
        duration=DURATION,
    )
    kwargs.update(overrides)
    return ScenarioSpec(name="net-test", network=NetworkSpec(**kwargs))


class TestNetworkSpec:
    def test_json_round_trip(self):
        spec = network_spec(
            events=(
                NetworkEventSpec(
                    kind="outage", link=("src", "mid0"), start=2.0,
                    duration=2.0,
                ),
                NetworkEventSpec(
                    kind="flash_crowd", demand=0, start=1.0, duration=3.0,
                    factor=5.0,
                ),
            )
        )
        back = ScenarioSpec.from_json(spec.to_json())
        assert back == spec
        assert back.network.events[0].link == ("src", "mid0")

    def test_explicit_topology_round_trip(self):
        spec = ScenarioSpec(
            name="explicit",
            network=NetworkSpec(
                topology=TopologySpec(
                    links=(
                        {"a": "x", "b": "y", "capacity_bps": 1e7},
                        {"a": "y", "b": "z", "capacity_bps": 1e7,
                         "bidirectional": False},
                    )
                ),
                demands=(
                    DemandSpec("x", "z", target_mean_rate_bps=1e6),
                ),
                duration=DURATION,
            ),
        )
        topology, demands, events = spec.network.build()
        assert topology.has_link("y", "x")
        assert not topology.has_link("z", "y")
        assert demands[0].workload.target_mean_rate_bps == 1e6
        assert events == ()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_unknown_key_pinpoints_path(self):
        data = network_spec().to_dict()
        data["network"]["demands"][0]["sinkk"] = "typo"
        with pytest.raises(ParameterError, match=r"network\.demands\[0\]"):
            ScenarioSpec.from_dict(data)

    def test_workload_and_network_are_exclusive(self):
        from repro.pipeline import WorkloadSpec

        with pytest.raises(ParameterError, match="not both"):
            ScenarioSpec(
                name="both",
                workload=WorkloadSpec(preset="medium"),
                network=network_spec().network,
            )

    def test_network_rejects_anomaly_section(self):
        from repro.pipeline import AnomalySpec

        with pytest.raises(ParameterError, match="network events"):
            ScenarioSpec(
                name="bad",
                network=network_spec().network,
                anomaly=AnomalySpec(),
            )

    def test_event_demand_out_of_range(self):
        with pytest.raises(ParameterError, match="targets demand 3"):
            network_spec(
                events=(
                    NetworkEventSpec(
                        kind="flash_crowd", demand=3, start=1.0,
                        duration=1.0,
                    ),
                )
            )

    def test_outage_needs_link(self):
        with pytest.raises(ParameterError, match="needs 'link'"):
            NetworkEventSpec(kind="outage", start=1.0, duration=1.0)

    def test_line_preset_needs_two_routers_at_spec_time(self):
        """Declaration-time rejection, not a mid-run build error."""
        with pytest.raises(ParameterError, match=r"network\.topology\.size"):
            TopologySpec(preset="line", size=1)
        # parallel-paths tolerates size=1 (two fibres, four directed links)
        assert TopologySpec(preset="parallel-paths", size=1).build().n_links == 4

    def test_demands_required(self):
        with pytest.raises(ParameterError, match="at least one"):
            NetworkSpec(
                topology=TopologySpec(preset="line"), demands=()
            )

    def test_family_property(self):
        assert network_spec().family == "network"
        assert default_registry().get("medium").family == "single-link"

    def test_per_demand_address_blocks_tiled_by_the_engine(self):
        """Tiling is the engine's mechanism, shared by every build path."""
        spec = network_spec(
            demands=(
                DemandSpec("src", "dst", preset="medium"),
                DemandSpec("dst", "src", preset="low"),
            )
        )
        _, demands, _ = spec.network.build()
        # the spec layer leaves address spaces alone ...
        bases = [d.workload.address_space.dst_base for d in demands]
        assert bases[0] == bases[1]
        # ... and the matrix-level tiling makes them disjoint
        tiled = demands.with_tiled_addresses()
        tiled_bases = [d.workload.address_space.dst_base for d in tiled]
        assert tiled_bases[0] != tiled_bases[1]
        assert tiled_bases[0] == bases[0]  # demand 0 untouched


class TestSimulateNetworkStage:
    def test_run_scenario_dispatches_network_stages(self):
        result = run_scenario(network_spec())
        assert result.network is not None
        assert result.synthesis is None
        assert result.trace is None
        report = result.network.report
        assert report.routing == "ecmp"
        assert any(entry.packets for entry in report.links)

    def test_report_includes_spec_and_network(self):
        result = run_scenario(network_spec())
        payload = result.report()
        assert payload["spec"]["name"] == "net-test"
        assert payload["network"]["routing"] == "ecmp"

    def test_explicit_network_stages(self):
        result = run_scenario(network_spec(), stages=NETWORK_STAGES)
        assert result.network is not None

    def test_stage_refuses_single_link_spec(self):
        from repro.pipeline import SimulateNetwork, PipelineContext

        spec = default_registry().get("medium")
        with pytest.raises(ParameterError, match="no 'network' section"):
            SimulateNetwork().run(PipelineContext(spec=spec))

    def test_results_invariant_to_chunk_and_workers(self):
        base = run_scenario(network_spec())
        varied = run_scenario(
            network_spec(execution=ExecutionSpec(chunk=2048, workers=3))
        )
        for link, entry in base.network.simulation.links.items():
            other = varied.network.simulation.links[link]
            assert entry.packet_count == other.packet_count
            if entry.series is not None:
                assert np.array_equal(
                    entry.series.values, other.series.values
                )

    def test_seed_changes_results(self):
        a = run_scenario(network_spec())
        b = run_scenario(network_spec().with_overrides(seed=1))
        la = a.network.simulation[("src", "mid0")]
        lb = b.network.simulation[("src", "mid0")]
        assert la.packet_count != lb.packet_count


class TestRegistryNetworkScenarios:
    def test_network_presets_registered(self):
        registry = default_registry()
        for name in ("abilene-table-i", "ecmp-flash-flood",
                     "outage-reroute"):
            assert name in registry
            assert registry.get(name).network is not None

    def test_families_group_the_registry(self):
        families = default_registry().families()
        assert set(families) == {
            "single-link", "network", "sweep", "real-trace-fit"
        }
        network_names = [name for name, _ in families["network"]]
        assert "abilene-table-i" in network_names
        single_names = [name for name, _ in families["single-link"]]
        assert "medium" in single_names
        assert "abilene-table-i" not in single_names
        sweep_names = [name for name, _ in families["sweep"]]
        assert "abilene-single-failure-2x" in sweep_names

    def test_quick_mode_caps_network_duration_and_events(self):
        spec = apply_quick_mode(
            default_registry().get("outage-reroute"), force=True
        )
        assert spec.network.duration == 30.0
        event = spec.network.events[0]
        assert event.start + event.duration <= spec.network.duration

    def test_quick_mode_noop_when_short(self):
        spec = network_spec()
        assert apply_quick_mode(spec, force=True) is spec

    def test_outage_reroute_scenario_detects_the_outage(self):
        spec = apply_quick_mode(
            default_registry().get("outage-reroute"), force=True
        )
        result = run_scenario(spec)
        failed = result.network.simulation[("src", "mid0")]
        assert any(event.kind == "drop" for event in failed.anomalies)

    def test_network_validation_knobs_flow_through(self):
        spec = network_spec(
            demands=(DemandSpec("src", "dst", preset="medium"),),
        )
        # epsilon tightening raises the required capacity on every link
        loose = run_scenario(spec)
        tight = run_scenario(
            ScenarioSpec(
                name="net-test",
                network=spec.network,
                validation=ValidationSpec(epsilon=0.0001),
            )
        )
        for link, entry in loose.network.simulation.links.items():
            if entry.required_capacity_bps:
                other = tight.network.simulation.links[link]
                assert (
                    other.required_capacity_bps
                    > entry.required_capacity_bps
                )
