"""Golden CalibrationReport from a small NetFlow v5 archive.

The archive is generated deterministically (fixed seed, fixed record
layout), calibrated with a fixed seed, and the resulting report is
compared field-for-field against the committed fixture.  Any change to
the accumulator binning, the fitters, the selection rule or the report
schema shows up here as a diff against
``tests/calibration/golden_report.json``.

Regenerate (after an *intentional* change) with::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/calibration/test_golden_report.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.calibration import calibrate_archive
from repro.interop import FLOW_RECORD_DTYPE, write_netflow5

GOLDEN = Path(__file__).with_name("golden_report.json")


def golden_records(n=800, seed=42):
    """A deterministic flow archive: lognormal body, Pareto elephants."""
    rng = np.random.default_rng(seed)
    records = np.zeros(n, dtype=FLOW_RECORD_DTYPE)
    starts = np.sort(rng.uniform(0.0, 120.0, n))
    records["start"] = np.round(starts, 3)  # NetFlow ms timestamps
    records["end"] = records["start"] + np.round(rng.uniform(0.1, 5.0, n), 3)
    records["src_addr"] = rng.integers(1, 2**32 - 1, n, dtype=np.uint32)
    records["dst_addr"] = rng.integers(1, 2**32 - 1, n, dtype=np.uint32)
    records["src_port"] = rng.integers(1024, 65535, n, dtype=np.uint16)
    records["dst_port"] = rng.integers(1, 1024, n, dtype=np.uint16)
    records["protocol"] = rng.choice([6, 17], n)
    body = rng.lognormal(np.log(3000.0), 0.9, n)
    tail = 2e4 * (1.0 - rng.random(n)) ** (-1.0 / 1.8)
    octets = np.where(rng.random(n) < 0.92, body, np.minimum(tail, 5e6))
    records["octets"] = np.maximum(np.rint(octets), 40).astype(np.uint64)
    records["packets"] = np.maximum(records["octets"] // 1460, 1)
    return records


def assert_json_equal(actual, expected, path="report"):
    assert type(actual) is type(expected), (
        f"{path}: {type(actual).__name__} != {type(expected).__name__}"
    )
    if isinstance(actual, dict):
        assert sorted(actual) == sorted(expected), f"{path}: key mismatch"
        for key in actual:
            assert_json_equal(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(actual, list):
        assert len(actual) == len(expected), f"{path}: length mismatch"
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_json_equal(a, e, f"{path}[{i}]")
    elif isinstance(actual, float):
        if np.isnan(expected):
            assert np.isnan(actual), f"{path}: {actual} != nan"
        else:
            assert actual == pytest.approx(expected, rel=1e-9, abs=1e-12), path
    else:
        assert actual == expected, f"{path}: {actual!r} != {expected!r}"


def test_golden_netflow5_calibration(tmp_path):
    archive = tmp_path / "golden.nf5"
    write_netflow5(golden_records(), archive)
    report = calibrate_archive(archive, seed=0)
    payload = report.to_dict()
    payload["source"] = "golden.nf5"  # drop the tmp_path prefix

    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN.write_text(json.dumps(payload, indent=2) + "\n")
        pytest.skip(f"regenerated {GOLDEN}")

    expected = json.loads(GOLDEN.read_text())
    assert_json_equal(payload, expected)


def test_golden_is_chunk_and_backend_invariant(tmp_path):
    archive = tmp_path / "golden.nf5"
    write_netflow5(golden_records(), archive)
    reference = calibrate_archive(archive, seed=0).to_dict()
    for chunk, workers, backend in (
        (64, 1, "serial"), (100, 4, "thread"), (200, 2, "process"),
    ):
        other = calibrate_archive(
            archive, seed=0, chunk=chunk, workers=workers, backend=backend
        ).to_dict()
        for skip in ("backend", "workers"):
            reference.pop(skip, None), other.pop(skip, None)
        assert other == reference


def test_streamed_archive_forks_one_pool(tmp_path, monkeypatch):
    # 800 records in 100-record blocks over 2 workers make several
    # two-block batches, and all of them must share one forked pool
    from repro.execution import SharedMemoryPool

    archive = tmp_path / "golden.nf5"
    write_netflow5(golden_records(), archive)
    serial = calibrate_archive(archive, seed=0, chunk=100).to_dict()
    forks = []
    spawn = SharedMemoryPool._spawn

    def counting_spawn(pool):
        forks.append(pool)
        spawn(pool)

    monkeypatch.setattr(SharedMemoryPool, "_spawn", counting_spawn)
    streamed = calibrate_archive(
        archive, seed=0, chunk=100, workers=2, backend="process"
    ).to_dict()
    assert len(forks) == 1
    for skip in ("backend", "workers"):
        serial.pop(skip), streamed.pop(skip)
    assert streamed == serial
