"""CLI: ``repro measure`` (alias ``import``) and ``repro export``."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main


@pytest.fixture()
def trace_file(tmp_path):
    path = tmp_path / "link.rptr"
    assert main(
        ["synthesize", str(path), "--preset", "3", "--duration", "20",
         "--seed", "11"]
    ) == 0
    return path


@pytest.fixture()
def nf5_file(trace_file, tmp_path):
    path = tmp_path / "link.nf5"
    assert main(
        ["export", str(trace_file), str(path), "--format", "netflow5"]
    ) == 0
    return path


class TestExport:
    @pytest.mark.parametrize("fmt", ["netflow5", "ipfix", "pcap"])
    def test_export_formats(self, trace_file, tmp_path, capsys, fmt):
        out_path = tmp_path / f"out.{fmt}"
        assert main(
            ["export", str(trace_file), str(out_path), "--format", fmt]
        ) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert f"(rptr -> {fmt})" in out
        assert out_path.stat().st_size > 0

    def test_transcode_netflow5_to_ipfix(self, nf5_file, tmp_path, capsys):
        out_path = tmp_path / "out.ipfix"
        assert main(
            ["export", str(nf5_file), str(out_path), "--format", "ipfix"]
        ) == 0
        assert "(netflow5 -> ipfix)" in capsys.readouterr().out

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        assert main(
            ["export", str(tmp_path / "gone.rptr"),
             str(tmp_path / "o.nf5"), "--format", "netflow5"]
        ) == 2
        assert "no such file" in capsys.readouterr().err


class TestImport:
    def test_prints_full_report(self, nf5_file, capsys):
        assert main(["import", str(nf5_file)]) == 0
        out = capsys.readouterr().out
        assert "netflow5:link.nf5" in out
        assert "parameters : lambda" in out
        assert "capacity   :" in out

    def test_report_file(self, nf5_file, tmp_path, capsys):
        report_path = tmp_path / "rep.json"
        assert main(
            ["import", str(nf5_file), "--report", str(report_path)]
        ) == 0
        report = json.loads(report_path.read_text())
        assert report["stages"]["import_flows"]["format"] == "netflow5"
        assert report["stages"]["import_flows"]["records"] > 0
        assert "fit_model" in report["stages"]
        assert "validation" in report

    def test_link_capacity_reports_utilization(self, nf5_file, capsys):
        assert main(
            ["import", str(nf5_file), "--link-capacity", "19437500"]
        ) == 0
        assert "util" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["import", str(tmp_path / "gone.nf5")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_chunked_matches_default(self, nf5_file, capsys):
        assert main(["import", str(nf5_file)]) == 0
        whole = capsys.readouterr().out
        assert main(["import", str(nf5_file), "--chunk", "16"]) == 0
        chunked = capsys.readouterr().out
        assert chunked == whole


class TestMeasureTelemetry:
    def test_measure_auto_sniffs_netflow5(self, nf5_file, capsys):
        assert main(["measure", str(nf5_file)]) == 0
        out = capsys.readouterr().out
        assert "parameters : lambda" in out

    def test_measure_explicit_format(self, nf5_file, capsys):
        assert main(
            ["measure", str(nf5_file), "--format", "netflow5",
             "--chunk", "32"]
        ) == 0
        assert "flows" in capsys.readouterr().out

    def test_measure_rptr_unchanged(self, trace_file, capsys):
        """A native .rptr capture takes the same ingest path."""
        assert main(["measure", str(trace_file)]) == 0
        assert "parameters" in capsys.readouterr().out

    def test_measure_missing_file_fails_cleanly(self, tmp_path, capsys):
        """measure and import are one command: a bad path is a usage
        error naming the file, never a traceback."""
        path = tmp_path / "gone.rptr"
        assert main(["measure", str(path)]) == 2
        assert f"error: {path}: no such file" in capsys.readouterr().err

    def test_measure_rptr_reports_utilization(
        self, trace_file, tmp_path, capsys
    ):
        """The .rptr header names the capacity; the byte total comes
        from the packets the import stream emitted."""
        outputs = []
        for command in ("measure", "import"):
            report = tmp_path / f"{command}.json"
            assert main(
                [command, str(trace_file), "--report", str(report)]
            ) == 0
            # everything but the "report : wrote <path>" line
            outputs.append(capsys.readouterr().out.splitlines()[:-1])
            summary = json.loads(report.read_text())["stages"]["import_flows"]
            assert summary["utilization"] == pytest.approx(0.033, abs=5e-4)
        assert outputs[0][0].endswith(", util 3.3%")
        assert outputs[0] == outputs[1]


class TestRunIngestScenario:
    def test_run_template_with_ingest_path(self, nf5_file, tmp_path, capsys):
        report_path = tmp_path / "run.json"
        assert main(
            ["run", "real-trace-netflow5", "--ingest-path", str(nf5_file),
             "--report", str(report_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "import     : netflow5:link.nf5" in out
        report = json.loads(report_path.read_text())
        assert report["stages"]["import_flows"]["records"] > 0

    def test_template_without_path_fails_cleanly(self, capsys):
        assert main(["run", "real-trace-netflow5"]) == 2
        assert "ingest.path is empty" in capsys.readouterr().err

    def test_ingest_path_rejected_for_synthetic_scenarios(self, capsys):
        assert main(
            ["run", "medium", "--ingest-path", "x.nf5"]
        ) == 2
        assert "--ingest-path" in capsys.readouterr().err

    def test_list_scenarios_shows_family(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "real-trace-netflow5" in out
