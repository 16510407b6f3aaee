"""The real-trace-fit pipeline family: IngestSpec -> ImportFlows -> fit."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import ParameterError, ReproError
from repro.interop import write_ipfix, write_netflow5, write_pcap
from repro.pipeline import (
    ExecutionSpec,
    INGEST_STAGES,
    IngestSpec,
    ScenarioSpec,
    default_registry,
    run_scenario,
)

from ..trace.test_packet import make_packets
from .conftest import make_records


@pytest.fixture()
def nf5_archive(tmp_path):
    path = tmp_path / "router.nf5"
    write_netflow5(make_records(60, packets=4, octets=6000), path)
    return path


class TestIngestSpec:
    def test_defaults(self):
        spec = IngestSpec()
        assert spec.format == "auto"
        assert spec.order == "auto"
        assert spec.rebase == "auto"
        assert spec.duration is None

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"format": "sflow"}, "ingest.format"),
            ({"order": "reverse"}, "ingest.order"),
            ({"rebase": "sometimes"}, "ingest.rebase"),
            ({"duration": -1.0}, "ingest.duration"),
            ({"link_capacity_bps": 0.0}, "ingest.link_capacity_bps"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ParameterError, match=match):
            IngestSpec(**kwargs)

    def test_require_path_on_template(self):
        with pytest.raises(ParameterError, match="ingest.path is empty"):
            IngestSpec().require_path()

    def test_chunk_aliases_into_execution(self):
        spec = IngestSpec(path="a.nf5", execution=ExecutionSpec(chunk=512))
        assert spec.execution.chunk == 512
        assert spec.chunk == 512

    def test_json_accepts_canonical_execution_only(self):
        data = {"name": "x", "ingest": {"path": "a.nf5",
                                        "execution": {"chunk": 256}}}
        spec = ScenarioSpec.from_dict(data)
        assert spec.ingest.execution.chunk == 256
        # a flat execution key is an unknown key, like any other typo
        with pytest.raises(ParameterError, match=r"unknown key\(s\) \['chunk'\]"):
            ScenarioSpec.from_dict(
                {"name": "x", "ingest": {"path": "a.nf5", "chunk": 256}}
            )

    def test_roundtrips_through_json(self):
        spec = ScenarioSpec(
            name="rt",
            ingest=IngestSpec(path="a.ipfix", format="ipfix",
                              link_capacity_bps=622e6),
        )
        back = ScenarioSpec.from_json(json.dumps(spec.to_dict()))
        assert back == spec


class TestScenarioValidation:
    def test_family_is_real_trace_fit(self):
        spec = ScenarioSpec(name="x", ingest=IngestSpec(path="a.nf5"))
        assert spec.family == "real-trace-fit"

    def test_ingest_excludes_workload(self):
        from repro.pipeline import WorkloadSpec

        with pytest.raises(ParameterError, match="not both"):
            ScenarioSpec(
                name="x",
                ingest=IngestSpec(path="a.nf5"),
                workload=WorkloadSpec(preset="low"),
            )

    def test_ingest_excludes_network(self):
        from repro.pipeline import DemandSpec, NetworkSpec, TopologySpec

        network = NetworkSpec(
            topology=TopologySpec(preset="abilene"),
            demands=(DemandSpec("seattle", "newyork", preset="table-i-4"),),
        )
        with pytest.raises(ParameterError, match="cannot be combined"):
            ScenarioSpec(
                name="x", ingest=IngestSpec(path="a.nf5"), network=network
            )

    def test_ingest_excludes_anomaly(self):
        from repro.pipeline import AnomalySpec

        with pytest.raises(ParameterError, match="ingest"):
            ScenarioSpec(
                name="x",
                ingest=IngestSpec(path="a.nf5"),
                anomaly=AnomalySpec(),
            )


class TestRegistry:
    def test_templates_registered(self):
        names = set(default_registry())
        assert {"real-trace-netflow5", "real-trace-ipfix",
                "real-trace-pcap"} <= names

    def test_templates_ship_without_path(self):
        registry = default_registry()
        for fmt in ("netflow5", "ipfix", "pcap"):
            spec = registry.get(f"real-trace-{fmt}")
            assert spec.family == "real-trace-fit"
            assert spec.ingest.format == fmt
            assert spec.ingest.path == ""
            with pytest.raises(ParameterError, match="ingest.path is empty"):
                run_scenario(spec)

    def test_template_runs_once_pointed_at_a_file(self, nf5_archive):
        spec = default_registry().get("real-trace-netflow5")
        spec = spec.with_overrides(
            ingest={"path": str(nf5_archive), "format": "netflow5"},
            generation=None,
        )
        result = run_scenario(spec)
        assert result.ingest is not None
        assert result.ingest.summary()["records"] == 60


class TestRunScenario:
    def make_spec(self, path, **ingest_kwargs):
        return ScenarioSpec(
            name="fit-archive",
            ingest=IngestSpec(path=str(path), **ingest_kwargs),
            generation=None,
        )

    def test_stage_chain(self):
        names = [stage.name for stage in INGEST_STAGES]
        assert names[0] == "import_flows"
        assert "account_flows" in names and "fit_model" in names

    def test_end_to_end_netflow5(self, nf5_archive):
        result = run_scenario(self.make_spec(nf5_archive))
        assert result.synthesis is None
        summary = result.ingest.summary()
        assert summary["format"] == "netflow5"
        assert summary["records"] == 60
        assert summary["packets"] == 240
        assert result.accounting.flows.statistics(
            summary["duration_s"]
        ).flow_count > 0
        assert result.fit is not None
        assert result.validation is not None

    def test_report_carries_import_stage(self, nf5_archive):
        report = run_scenario(self.make_spec(nf5_archive)).report()
        stage = report["stages"]["import_flows"]
        assert stage["format"] == "netflow5"
        assert stage["records"] == 60
        assert "synthesize" not in report["stages"]
        json.dumps(report)  # JSON-safe

    def test_utilization_from_link_capacity(self, nf5_archive):
        spec = self.make_spec(nf5_archive, link_capacity_bps=1e6)
        summary = run_scenario(spec).ingest.summary()
        assert summary["utilization"] == pytest.approx(
            summary["mean_rate_bps"] / 1e6
        )

    def test_pcap_scenario(self, tmp_path):
        path = tmp_path / "cap.pcap"
        write_pcap(make_packets(400, spacing=0.01, size=400), path)
        result = run_scenario(self.make_spec(path, format="pcap"))
        assert result.ingest.summary()["packets"] == 400

    def test_ipfix_scenario_auto_format(self, tmp_path):
        path = tmp_path / "cap.ipfix"
        write_ipfix(make_records(25), path)
        result = run_scenario(self.make_spec(path))
        assert result.ingest.summary()["format"] == "ipfix"
        assert result.ingest.summary()["records"] == 25

    def test_empty_archive_is_an_error(self, tmp_path):
        from repro.interop import FLOW_RECORD_DTYPE

        path = tmp_path / "empty.nf5"
        write_netflow5(np.empty(0, dtype=FLOW_RECORD_DTYPE), path)
        with pytest.raises(ReproError, match="nothing to fit|too short"):
            run_scenario(self.make_spec(path, format="netflow5"))

    def test_missing_file_is_an_error(self, tmp_path):
        with pytest.raises(ReproError, match="no such file"):
            run_scenario(self.make_spec(tmp_path / "gone.nf5"))
