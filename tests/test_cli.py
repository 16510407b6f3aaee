"""Tests for the command-line interface (python -m repro)."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import build_parser, main
from repro.pipeline import (
    DemandSpec,
    ExecutionSpec,
    NetworkSpec,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.trace import TraceWriter, read_trace


@pytest.fixture()
def trace_file(tmp_path):
    path = tmp_path / "link.rptr"
    code = main(
        ["synthesize", str(path), "--preset", "medium", "--duration", "30",
         "--seed", "3"]
    )
    assert code == 0
    return path


class TestSynthesize:
    def test_writes_readable_trace(self, trace_file):
        trace = read_trace(trace_file)
        assert len(trace) > 1000
        assert trace.duration == pytest.approx(30.0)

    def test_table_i_row_preset(self, tmp_path, capsys):
        path = tmp_path / "row3.rptr"
        assert main(["synthesize", str(path), "--preset", "3",
                     "--duration", "20"]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        trace = read_trace(path)
        assert trace.utilization < 0.1  # the 26 Mbps-class link

    def test_unknown_preset_friendly_error(self, tmp_path, capsys):
        """No bare int() crash: list the valid presets instead."""
        code = main(["synthesize", str(tmp_path / "x.rptr"),
                     "--preset", "enormous"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown preset 'enormous'" in err
        assert "low" in err and "medium" in err and "high" in err
        assert "0-6" in err

    def test_out_of_range_row_friendly_error(self, tmp_path, capsys):
        code = main(["synthesize", str(tmp_path / "x.rptr"),
                     "--preset", "9"])
        assert code == 2
        assert "0-6" in capsys.readouterr().err


class TestMeasure:
    def test_report_contents(self, trace_file, capsys):
        assert main(["measure", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "lambda" in out
        assert "CoV" in out
        assert "shot fit" in out
        assert "capacity" in out

    def test_prefix_kind(self, trace_file, capsys):
        assert main(
            ["measure", str(trace_file), "--flow-kind", "prefix"]
        ) == 0
        assert "prefix" in capsys.readouterr().out

    def test_chunked_measurement_same_output(self, trace_file, capsys):
        """--chunk/--workers route through the streaming engine without
        changing a single reported number."""
        assert main(["measure", str(trace_file)]) == 0
        baseline = capsys.readouterr().out
        assert main(
            ["measure", str(trace_file), "--chunk", "2000", "--workers", "2"]
        ) == 0
        assert capsys.readouterr().out == baseline

    def test_negative_chunk_rejected(self, trace_file, capsys):
        assert main(["measure", str(trace_file), "--chunk", "-5"]) == 2
        assert "--chunk must be >= 0" in capsys.readouterr().err

    def test_non_finite_timestamp_is_a_usage_error(
        self, trace_file, tmp_path, capsys
    ):
        trace = read_trace(trace_file)
        packets = trace.packets.copy()
        packets["timestamp"][3] = float("nan")
        path = tmp_path / "nan.rptr"
        with TraceWriter(
            path, link_capacity=trace.link_capacity,
            duration=trace.duration, allow_unsorted=True,
        ) as writer:
            writer.write(packets)
        assert main(["measure", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error: packet 3 has a non-finite timestamp" in err


class TestGenerate:
    def test_generates_calibrated_trace(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "generated.rptr"
        assert main(
            ["generate", str(trace_file), str(out_path), "--duration", "20",
             "--seed", "1"]
        ) == 0
        original = read_trace(trace_file)
        generated = read_trace(out_path)
        assert len(generated) > 500
        # calibrated generation lands near the original rate
        assert generated.mean_rate_bps == pytest.approx(
            original.mean_rate_bps, rel=0.3
        )

    def test_rejects_negative_seed_before_reading_input(
        self, tmp_path, capsys
    ):
        out_path = tmp_path / "generated.rptr"
        missing = tmp_path / "missing.rptr"
        assert main(
            ["generate", str(missing), str(out_path), "--seed", "-1"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be >= 0, got -1")
        assert "Traceback" not in err
        assert not out_path.exists()


class TestRun:
    def test_registry_scenario_with_report(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
        report_path = tmp_path / "report.json"
        assert main(["run", "medium", "--report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "scenario   : medium" in out
        assert "CoV" in out
        report = json.loads(report_path.read_text())
        assert report["spec"]["name"] == "medium"
        assert report["spec"]["workload"]["duration"] == 30.0  # quick mode
        assert "within_band" in report["validation"]
        assert "generate" in report["stages"]

    def test_spec_file(self, tmp_path, capsys):
        spec = ScenarioSpec(
            name="custom-file",
            workload=WorkloadSpec(preset="low", duration=20.0),
            generation=None,
        )
        path = spec.to_file(tmp_path / "custom.json")
        assert main(["run", str(path)]) == 0
        assert "custom-file" in capsys.readouterr().out

    def test_seed_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
        assert main(["run", "low", "--seed", "5"]) == 0
        assert "scenario   : low" in capsys.readouterr().out

    def test_unknown_scenario_lists_names(self, capsys):
        assert main(["run", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario 'nope'" in err
        assert "medium" in err

    def test_bad_spec_file_is_friendly(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x", "bogus": 1}')
        assert main(["run", str(path)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_mistyped_spec_value_is_friendly(self, tmp_path, capsys):
        path = tmp_path / "typed.json"
        path.write_text(
            '{"name": "x", "workload": {"preset": "low", '
            '"duration": "long"}}'
        )
        assert main(["run", str(path)]) == 2
        assert "spec.workload" in capsys.readouterr().err

    def test_registry_name_wins_over_same_named_directory(
            self, tmp_path, capsys, monkeypatch):
        """A ./medium directory must not shadow the registry scenario."""
        monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "medium").mkdir()
        assert main(["run", "medium"]) == 0
        assert "scenario   : medium" in capsys.readouterr().out

    def test_health_line_after_a_recovered_run(self, capsys, monkeypatch,
                                                 tmp_path):
        """run shares the network/sweep epilogue, health line included:
        a retry recorded during the run reaches the line and the report."""
        from repro.execution import record_retry
        from repro.pipeline.stages import Estimate

        monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
        estimate = Estimate.run

        def bumpy_estimate(self, context):
            record_retry("worker-lost", "injected by the test")
            return estimate(self, context)

        monkeypatch.setattr(Estimate, "run", bumpy_estimate)
        report = tmp_path / "report.json"
        assert main(["run", "low", "--report", str(report)]) == 0
        assert "health     : 1 retry, 0 degradation(s)" in (
            capsys.readouterr().out
        )
        health = json.loads(report.read_text())["health"]
        assert [e["kind"] for e in health["retries"]] == ["worker-lost"]

    def test_spec_path_that_is_a_directory_is_friendly(self, tmp_path,
                                                       capsys):
        (tmp_path / "spec.json").mkdir()
        assert main(["run", str(tmp_path / "spec.json")]) == 2
        assert "not a regular file" in capsys.readouterr().err


class TestListScenarios:
    def test_lists_registry(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("medium", "table-i-0", "mice-elephants",
                     "diurnal-ramp", "flash-flood"):
            assert name in out

    def test_groups_by_family(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "single-link scenarios:" in out
        assert "network scenarios:" in out
        # network presets live under the network header
        single_part, network_part = out.split("network scenarios:")
        assert "abilene-table-i" in network_part
        assert "abilene-table-i" not in single_part
        assert "medium" in single_part


class TestNetworkCommand:
    def test_runs_registry_network_scenario(self, capsys, monkeypatch,
                                            tmp_path):
        monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
        report = tmp_path / "net.json"
        assert main(["network", "outage-reroute", "--workers", "2",
                     "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "scenario   : outage-reroute" in out
        assert "shortest_path routing" in out
        assert "src->mid0" in out
        assert "verdict" in out
        payload = json.loads(report.read_text())
        assert payload["network"]["routing"] == "shortest_path"
        assert payload["network"]["links"]

    def test_network_spec_file(self, capsys, tmp_path):
        spec = ScenarioSpec(
            name="tiny-net",
            network=NetworkSpec(
                topology=TopologySpec(preset="line", size=2),
                demands=(DemandSpec("r0", "r1", preset="medium"),),
                routing="shortest_path",
                duration=8.0,
            ),
        )
        path = tmp_path / "net.json"
        path.write_text(spec.to_json())
        assert main(["network", str(path)]) == 0
        assert "tiny-net" in capsys.readouterr().out

    def test_single_link_spec_is_friendly_error(self, capsys):
        assert main(["network", "medium"]) == 2
        err = capsys.readouterr().err
        assert "no 'network' section" in err

    def test_bad_workers_rejected_even_without_chunk(self, capsys):
        assert main(["network", "outage-reroute", "--workers", "0"]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err
        assert main(["network", "outage-reroute", "--chunk", "-1"]) == 2
        assert "--chunk must be >= 0" in capsys.readouterr().err

    def test_unknown_scenario_is_friendly_error(self, capsys):
        assert main(["network", "no-such-net"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_redirects_network_specs(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
        assert main(["run", "ecmp-flash-flood"]) == 0
        out = capsys.readouterr().out
        assert "ecmp routing" in out

    def test_chunk_workers_do_not_change_the_report(self, capsys, tmp_path):
        spec = ScenarioSpec(
            name="invariant-net",
            network=NetworkSpec(
                topology=TopologySpec(preset="parallel-paths", size=2),
                demands=(DemandSpec("src", "dst", preset="medium"),),
                duration=8.0,
            ),
        )
        path = tmp_path / "net.json"
        path.write_text(spec.to_json())
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["network", str(path), "--report", str(a)]) == 0
        assert main(["network", str(path), "--chunk", "3000",
                     "--workers", "2", "--report", str(b)]) == 0
        ra = json.loads(a.read_text())["network"]
        rb = json.loads(b.read_text())["network"]
        assert ra == rb


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_measure_and_import_are_one_command(self):
        parser = build_parser()
        measure = parser.parse_args(["measure", "x.rptr"])
        imported = parser.parse_args(["import", "x.rptr"])
        assert measure.func is imported.func
        assert vars(measure) | {"command": None} == vars(imported) | {
            "command": None
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["scenario", "links"],
            ["generate", "in.rptr", "out.rptr", "--workers", "4"],
            ["generate", "in.rptr", "out.rptr", "--chunk", "5"],
        ],
    )
    def test_removed_surfaces_are_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestStreamedSynthesize:
    def test_streamed_file_identical_to_in_memory(self, tmp_path):
        a, b = tmp_path / "a.rptr", tmp_path / "b.rptr"
        assert main(["synthesize", str(a), "--preset", "medium",
                     "--duration", "15", "--seed", "4"]) == 0
        assert main(["synthesize", str(b), "--preset", "medium",
                     "--duration", "15", "--seed", "4",
                     "--chunk", "1500", "--workers", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_streamed_zero_flow_error_is_friendly_and_clean(
        self, tmp_path, capsys
    ):
        """Mirrors StreamingSynthesis.write_trace: friendly error, no
        stale capture file left behind."""
        path = tmp_path / "empty.rptr"
        code = main(["synthesize", str(path), "--preset", "low",
                     "--duration", "0.0001", "--chunk", "1000"])
        assert code == 2
        assert "zero flows" in capsys.readouterr().err
        assert not path.exists()

    def test_run_chunk_flag_streams(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
        assert main(["run", "medium", "--chunk", "20000"]) == 0
        assert "[streamed]" in capsys.readouterr().out


@pytest.fixture()
def sweep_spec_file(tmp_path):
    """A tiny analytic-only sweep (no engine runs: fast and exact)."""
    spec = ScenarioSpec(
        name="tiny-sweep",
        network=NetworkSpec(
            topology=TopologySpec(preset="parallel-paths", size=2),
            demands=(DemandSpec("src", "dst", preset="low"),),
            routing="ecmp",
            duration=8.0,
        ),
        sweep=SweepSpec(
            demand_factors=(1.0, 2.0), failures="single", simulate="none"
        ),
    )
    path = tmp_path / "sweep.json"
    path.write_text(spec.to_json())
    return path


class TestSweep:
    def test_prints_ranked_table_and_writes_report(
        self, sweep_spec_file, tmp_path, capsys
    ):
        report = tmp_path / "sweep-report.json"
        assert main(["sweep", str(sweep_spec_file),
                     "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "scenario   : tiny-sweep" in out
        assert "verdict" in out  # the table header
        # baseline + 4 fibres, two growth factors
        assert "10 cells" in out
        assert "headroom" in out
        payload = json.loads(report.read_text())["sweep"]
        assert payload["n_cells"] == 10
        assert len(payload["cells"]) == 10

    def test_non_sweep_scenario_is_friendly_error(self, capsys):
        assert main(["sweep", "medium"]) == 2
        assert "no 'sweep' section" in capsys.readouterr().err

    def test_run_and_network_redirect_sweep_specs(
        self, sweep_spec_file, capsys
    ):
        assert main(["run", str(sweep_spec_file)]) == 0
        assert "10 cells" in capsys.readouterr().out
        assert main(["network", str(sweep_spec_file)]) == 0
        assert "10 cells" in capsys.readouterr().out

    def test_bad_execution_flags_rejected(self, sweep_spec_file, capsys):
        assert main(["sweep", str(sweep_spec_file), "--chunk", "-1"]) == 2
        assert "--chunk must be >= 0" in capsys.readouterr().err
        assert main(["sweep", str(sweep_spec_file), "--workers", "0"]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err


class TestExecutionPrecedence:
    """A flag given overrides the spec; a flag left unset keeps it."""

    def _spec_with_execution(self, tmp_path, workers, chunk=None):
        spec = ScenarioSpec(
            name="precedence",
            network=NetworkSpec(
                topology=TopologySpec(preset="parallel-paths", size=2),
                demands=(DemandSpec("src", "dst", preset="low"),),
                duration=8.0,
            ),
            sweep=SweepSpec(
                demand_factors=(1.0,),
                failures="none",
                simulate="none",
                execution=ExecutionSpec(chunk=chunk, workers=workers),
            ),
        )
        path = tmp_path / "precedence.json"
        path.write_text(spec.to_json())
        return path

    def _reported_workers(self, report_path):
        payload = json.loads(report_path.read_text())
        return payload["spec"]["sweep"]["execution"]["workers"]

    def test_cli_wins_by_default(self, tmp_path):
        path = self._spec_with_execution(tmp_path, workers=2)
        report = tmp_path / "out.json"
        assert main(["sweep", str(path), "--workers", "3",
                     "--report", str(report)]) == 0
        assert self._reported_workers(report) == 3

    def test_unset_flags_keep_the_spec_values(self, tmp_path):
        path = self._spec_with_execution(tmp_path, workers=2)
        report = tmp_path / "out.json"
        assert main(["sweep", str(path), "--report", str(report)]) == 0
        assert self._reported_workers(report) == 2

    def test_chunk_zero_clears_the_spec_chunk(self, tmp_path):
        path = self._spec_with_execution(tmp_path, workers=2, chunk=5000)
        report = tmp_path / "out.json"
        assert main(["sweep", str(path), "--chunk", "0",
                     "--report", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["spec"]["sweep"]["execution"]["chunk"] is None
        assert self._reported_workers(report) == 2

    @pytest.mark.parametrize(
        "command", ["run", "network", "sweep", "synthesize", "measure"]
    )
    def test_help_documents_the_precedence_rule(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "--execution" not in out
        assert "each flag given overrides the spec's 'execution'" in out


@pytest.fixture()
def simulated_sweep_spec_file(tmp_path):
    """A 5-cell sweep with every cell simulated (fast toy network)."""
    spec = ScenarioSpec(
        name="ckpt-sweep",
        network=NetworkSpec(
            topology=TopologySpec(preset="parallel-paths", size=2),
            demands=(DemandSpec("src", "dst", preset="low"),),
            routing="ecmp",
            duration=8.0,
        ),
        sweep=SweepSpec(
            demand_factors=(1.0,), failures="single", simulate="all"
        ),
    )
    path = tmp_path / "ckpt-sweep.json"
    path.write_text(spec.to_json())
    return path


class TestExitCodes:
    """The exit-code taxonomy: 2 usage/spec, 3 runtime, 130 interrupted."""

    def test_runtime_engine_failure_exits_3(
        self, sweep_spec_file, capsys, monkeypatch
    ):
        from repro.exceptions import ModelError

        def explode(spec, **kwargs):
            raise ModelError("variance collapsed mid-run")

        monkeypatch.setattr("repro.__main__.run_scenario", explode)
        assert main(["sweep", str(sweep_spec_file)]) == 3
        err = capsys.readouterr().err
        assert "variance collapsed" in err

    def test_spec_errors_stay_exit_2(self, capsys):
        assert main(["sweep", "no-such-scenario"]) == 2

    def test_interrupt_exits_130(self, sweep_spec_file, capsys, monkeypatch):
        def interrupt(spec, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.__main__.run_scenario", interrupt)
        assert main(["sweep", str(sweep_spec_file)]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_interrupt_names_the_checkpoint_dir(
        self, sweep_spec_file, tmp_path, capsys, monkeypatch
    ):
        def interrupt(spec, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.__main__.run_scenario", interrupt)
        ckpt = tmp_path / "ckpt"
        assert main(["sweep", str(sweep_spec_file),
                     "--checkpoint-dir", str(ckpt)]) == 130
        err = capsys.readouterr().err
        assert str(ckpt) in err
        assert "--resume" in err


class TestCheckpointResumeCli:
    def test_resume_without_checkpoint_dir_is_usage_error(
        self, sweep_spec_file, capsys
    ):
        assert main(["sweep", str(sweep_spec_file), "--resume"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_network_shares_the_resume_check(self, capsys):
        """run/network/sweep share one prelude: network --resume with
        nothing to resume from is a usage error too."""
        assert main(["network", "outage-reroute", "--resume"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_checkpoint_then_resume_reproduces_the_report(
        self, simulated_sweep_spec_file, tmp_path, capsys
    ):
        ckpt = tmp_path / "ckpt"
        first = tmp_path / "first.json"
        assert main(["sweep", str(simulated_sweep_spec_file),
                     "--checkpoint-dir", str(ckpt),
                     "--report", str(first)]) == 0
        done = sorted(p.name for p in ckpt.glob("*.ckpt"))
        assert done  # every simulated cell checkpointed
        # drop some completed cells, as if the run had been killed
        for victim in sorted(ckpt.glob("*.ckpt"))[::2]:
            victim.unlink()
        second = tmp_path / "second.json"
        assert main(["sweep", str(simulated_sweep_spec_file),
                     "--checkpoint-dir", str(ckpt),
                     "--resume", "--report", str(second)]) == 0
        assert "resumed" in capsys.readouterr().out
        a = json.loads(first.read_text())["sweep"]
        b = json.loads(second.read_text())["sweep"]
        assert b.pop("resumed_cells")  # only the resumed run has them
        a.pop("health", None), b.pop("health", None)
        assert a == b

    def test_mismatched_checkpoint_dir_is_usage_error(
        self, sweep_spec_file, simulated_sweep_spec_file, tmp_path, capsys
    ):
        ckpt = tmp_path / "ckpt"
        assert main(["sweep", str(simulated_sweep_spec_file),
                     "--checkpoint-dir", str(ckpt)]) == 0
        assert main(["sweep", str(sweep_spec_file),
                     "--checkpoint-dir", str(ckpt), "--resume"]) == 2
        assert "fingerprint mismatch" in capsys.readouterr().err


class TestImportErrorsFlag:
    def _corrupt_archive(self, tmp_path):
        """Two NetFlow v5 datagrams; the second one's version mangled."""
        import numpy as np

        from repro.interop import FLOW_RECORD_DTYPE, write_netflow5

        def records(n, seed):
            rng = np.random.default_rng(seed)
            block = np.zeros(n, dtype=FLOW_RECORD_DTYPE)
            block["start"] = 0.25 * np.arange(n)
            block["end"] = block["start"] + 2.0
            block["src_addr"] = rng.integers(1, 2**32 - 1, n)
            block["dst_addr"] = rng.integers(1, 2**32 - 1, n)
            block["src_port"] = 1024
            block["dst_port"] = 80
            block["protocol"] = 6
            block["packets"] = 40
            block["octets"] = 60000
            return block

        a, b = tmp_path / "a.nf5", tmp_path / "b.nf5"
        write_netflow5(records(40, 0), a)
        write_netflow5(records(2, 1), b)
        data = bytearray(a.read_bytes() + b.read_bytes())
        data[len(a.read_bytes()) + 1] = 9  # NetFlow v9 datagram
        path = tmp_path / "corrupt.nf5"
        path.write_bytes(bytes(data))
        return path

    def test_strict_default_fails_loudly(self, tmp_path, capsys):
        path = self._corrupt_archive(tmp_path)
        assert main(["import", str(path)]) == 2
        assert "bad NetFlow version" in capsys.readouterr().err

    def test_skip_imports_and_reports_the_count(self, tmp_path, capsys):
        path = self._corrupt_archive(tmp_path)
        report = tmp_path / "report.json"
        assert main(["import", str(path), "--errors", "skip",
                     "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "(2 malformed skipped)" in out
        payload = json.loads(report.read_text())
        ingest = payload["stages"]["import_flows"]
        assert ingest["records_skipped"] == 2
        assert ingest["records"] == 40


class TestRetrySurvivesFlagMerge:
    def test_cli_flag_override_keeps_the_spec_retry(self, tmp_path):
        """Regression: --workers used to rebuild the execution section
        and silently drop the spec's retry policy — disarming the
        watchdog on exactly the runs that asked for it."""
        from repro.execution import RetryPolicy

        spec = ScenarioSpec(
            name="retry-keeper",
            network=NetworkSpec(
                topology=TopologySpec(preset="parallel-paths", size=2),
                demands=(DemandSpec("src", "dst", preset="low"),),
                duration=8.0,
            ),
            sweep=SweepSpec(
                demand_factors=(1.0,),
                failures="none",
                simulate="none",
                execution=ExecutionSpec(
                    workers=2,
                    retry=RetryPolicy(max_retries=3, timeout_s=45.0),
                ),
            ),
        )
        path = tmp_path / "retry.json"
        path.write_text(spec.to_json())
        report = tmp_path / "out.json"
        assert main(["sweep", str(path), "--workers", "3",
                     "--report", str(report)]) == 0
        execution = json.loads(report.read_text())["spec"]["sweep"]["execution"]
        assert execution["workers"] == 3
        assert execution["retry"]["max_retries"] == 3
        assert execution["retry"]["timeout_s"] == 45.0


class TestCalibrate:
    def _archive(self, tmp_path, n=600, seed=9):
        import numpy as np

        from repro.interop import FLOW_RECORD_DTYPE, write_netflow5

        rng = np.random.default_rng(seed)
        block = np.zeros(n, dtype=FLOW_RECORD_DTYPE)
        block["start"] = np.round(np.sort(rng.uniform(0.0, 60.0, n)), 3)
        block["end"] = block["start"] + 1.0
        block["src_addr"] = rng.integers(1, 2**32 - 1, n)
        block["dst_addr"] = rng.integers(1, 2**32 - 1, n)
        block["src_port"] = 1024
        block["dst_port"] = 80
        block["protocol"] = 6
        block["octets"] = np.maximum(
            np.rint(rng.lognormal(np.log(3000.0), 0.8, n)), 40
        ).astype(np.uint64)
        block["packets"] = np.maximum(block["octets"] // 1460, 1)
        path = tmp_path / "cal.nf5"
        write_netflow5(block, path)
        return path

    def test_archive_emits_runnable_spec(self, tmp_path, capsys):
        archive = self._archive(tmp_path)
        fitted = tmp_path / "fitted.json"
        report = tmp_path / "report.json"
        assert main(["calibrate", str(archive), "-o", str(fitted),
                     "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "family" in out and "candidates" in out
        spec = ScenarioSpec.from_file(fitted)
        assert spec.name == "cal-fitted"
        assert spec.workload.sizes is not None
        payload = json.loads(report.read_text())
        assert payload["family"] == spec.workload.sizes.kind
        # the emitted spec runs end-to-end through the normal pipeline
        assert main(["run", str(fitted)]) == 0

    def test_closed_loop_validate_passes(self, tmp_path, capsys):
        # enough flows that the q=0.999 tail quantile is resolvable
        archive = self._archive(tmp_path, n=5000)
        assert main(["calibrate", str(archive), "--validate"]) == 0
        assert "closed loop: PASS" in capsys.readouterr().out

    def test_registry_scenario_target(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
        fitted = tmp_path / "fitted.json"
        assert main(["calibrate", "campus-mixture-low",
                     "-o", str(fitted)]) == 0
        assert ScenarioSpec.from_file(fitted).workload.sizes is not None

    def test_network_scenario_rejected(self, capsys):
        assert main(["calibrate", "abilene-table-i"]) == 2
        assert "single-link" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        archive = self._archive(tmp_path)
        fitted = tmp_path / "bad.json"
        assert main(["calibrate", str(archive), "-o", str(fitted),
                     "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "seed must be >= 0" in err
        assert "Traceback" not in err
        assert not fitted.exists()

    def test_empty_archive_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "empty.nf5"
        path.write_bytes(b"")
        assert main(["calibrate", str(path)]) == 2
        assert "too short" in capsys.readouterr().err
