"""The benchmark's own tests, on its small-size inputs.

Run from the repository root: ``python3 -m pytest perfbench``.  Each
test runs ``perfbench/run.py --size small`` as a child process, the way
the benchmark is meant to be run, and reads what it prints.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]

#: Checks every run makes, then the ones each workload adds.
COMMON_CHECKS = {
    "inputs_deterministic",
    "same_digest_every_operation",
    "no_child_processes",
    "no_shm_segments",
    "temp_dir_removed",
}
WORKLOAD_CHECKS = {
    "link-fullrate": {"validation_passed", "packets_conserved"},
    "sweep-abilene": {"cells_accounted", "health_clean"},
    "telemetry-roundtrip": {
        "netflow5_records_written",
        "ipfix_records_written",
        "netflow5_flow_count",
        "ipfix_flow_count",
        "same_family",
    },
}
#: Per-layer metrics that must be non-zero on each workload's traced run.
WORKLOAD_LAYERS = {
    "link-fullrate": {
        "pipeline.synthesize_s",
        "pipeline.account_flows_s",
        "pipeline.validate_s",
        "core.model_autocorrelation_s",
        "synthesis.cells_s",
        "measurement.shards_s",
        "flows",
        "packets",
    },
    "sweep-abilene": {
        "pipeline.run_sweep_s",
        "network.links_s",
        "synthesis.cells_s",
        "sweep.cells",
        "sweep.cells_simulated",
        "sweep.prefilter_settled_ratio",
        "sweep.s_per_simulated_cell",
    },
    "telemetry-roundtrip": {
        "interop.to_records_s",
        "interop.write_netflow5_s",
        "interop.write_ipfix_s",
        "interop.read_netflow5_s",
        "interop.read_ipfix_s",
        "interop.bytes_written",
        "calibration.netflow5_s",
        "calibration.ipfix_s",
        "calibration.fit_s",
    },
}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_run_prints_every_metric_and_passes_its_checks(workload, trace):
    done = bench(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", trace, "--size", "small",
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 3

    section = "per_layer" if trace == "1" else "end_to_end"
    units = {m["name"]: m["unit"] for m in MANIFEST[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == units
    for name, unit in units.items():
        assert any(
            line.split()[:1] == [name] and line.split()[-1] == unit
            for line in lines
        ), f"{name} is not printed with its unit"

    checks = json.loads(
        next(line for line in lines if line.startswith("# checks "))[9:]
    )
    assert COMMON_CHECKS | WORKLOAD_CHECKS[workload] <= set(checks)
    assert all(checks.values()), checks

    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace == "0":
        assert all(value > 0 for value in values.values()), values
    else:
        assert all(values[name] > 0 for name in WORKLOAD_LAYERS[workload])
        assert values["error_rate"] == 0
    host = json.loads(
        next(line for line in lines if line.startswith("# host "))[7:]
    )
    assert {"nproc", "python", "numpy", "backend", "numba"} <= set(host)


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__")
    )
    done = bench(
        "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""
