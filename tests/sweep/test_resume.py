"""Checkpoint/resume: an interrupted sweep restarts bitwise-equal.

The durability contract of :mod:`repro.checkpoint` + ``run_sweep``:

* every simulated cell lands on disk atomically the moment it
  completes (``cell-NNNN.ckpt`` + pinned ``manifest.json``);
* ``resume=True`` restores completed cells and re-runs only the
  remainder — and the resulting :class:`SweepReport` is *bitwise equal*
  to an uninterrupted run's (cell seeds are fixed at expansion);
* a checkpoint directory never serves a different run: fingerprint
  mismatch fails loudly with :class:`CheckpointError`;
* execution knobs (workers/backend/chunk/retry) are excluded from the
  fingerprint — a run may resume under a different parallelism;
* the CLI honours the same contract end to end: a sweep killed
  mid-flight exits 130 with a ``--resume`` hint, and the resumed run
  reproduces the uninterrupted report exactly.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.checkpoint import MANIFEST_NAME, CheckpointStore, run_fingerprint
from repro.exceptions import CheckpointError, ParameterError
from repro.pipeline import (
    DemandSpec,
    ExecutionSpec,
    NetworkSpec,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
)
from repro.sweep import run_sweep

#: The checkout this test file belongs to: the CLI under test runs from it.
_REPO = Path(__file__).resolve().parents[2]


def _toy(duration=8.0, preset="low", seed=23, **sweep_kwargs):
    """2-path toy sweep, every cell simulated: 5 cells, ~0.1 s total."""
    sweep_kwargs.setdefault("demand_factors", (1.0,))
    sweep_kwargs.setdefault("failures", "single")
    return ScenarioSpec(
        name="toy-sweep",
        seed=seed,
        network=NetworkSpec(
            topology=TopologySpec(preset="parallel-paths", size=2),
            demands=(DemandSpec("src", "dst", preset=preset),),
            routing="ecmp",
            duration=duration,
        ),
        sweep=SweepSpec(simulate="all", **sweep_kwargs),
    )


class TestRunFingerprint:
    def test_execution_sections_are_stripped(self):
        spec = _toy()
        tuned = _toy(execution=ExecutionSpec(workers=8, backend="process"))
        assert run_fingerprint(spec.to_dict()) == run_fingerprint(
            tuned.to_dict()
        )

    def test_identity_changes_change_the_fingerprint(self):
        assert run_fingerprint(_toy(seed=23).to_dict()) != run_fingerprint(
            _toy(seed=24).to_dict()
        )


class TestCheckpointStore:
    def test_save_load_round_trips_bitwise(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt", "fp")
        value = {"ratio": 0.1 + 0.2, "links": (("a", "b"),)}
        store.save("cell-0000", value)
        assert store.has("cell-0000")
        assert store.load("cell-0000") == value
        assert store.keys() == ["cell-0000"]

    def test_writes_are_atomic_no_tmp_left(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt", "fp")
        store.save("cell-0000", [1, 2, 3])
        names = {p.name for p in (tmp_path / "ckpt").iterdir()}
        assert names == {MANIFEST_NAME, "cell-0000.ckpt"}

    def test_fresh_run_discards_previous_entries(self, tmp_path):
        directory = tmp_path / "ckpt"
        CheckpointStore(directory, "fp").save("cell-0000", 1)
        fresh = CheckpointStore(directory, "fp", resume=False)
        assert fresh.keys() == []

    def test_resume_keeps_previous_entries(self, tmp_path):
        directory = tmp_path / "ckpt"
        CheckpointStore(directory, "fp").save("cell-0000", 1)
        assert CheckpointStore(directory, "fp", resume=True).keys() == [
            "cell-0000"
        ]

    def test_fingerprint_mismatch_fails_loudly(self, tmp_path):
        directory = tmp_path / "ckpt"
        CheckpointStore(directory, "fp-one")
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            CheckpointStore(directory, "fp-two", resume=True)

    def test_unreadable_manifest_fails_loudly(self, tmp_path):
        directory = tmp_path / "ckpt"
        directory.mkdir()
        (directory / MANIFEST_NAME).write_text("{torn")
        with pytest.raises(CheckpointError, match="unreadable"):
            CheckpointStore(directory, "fp")


class TestSweepCheckpointing:
    def test_every_simulated_cell_lands_on_disk(self, tmp_path):
        directory = tmp_path / "ckpt"
        result = run_sweep(_toy(), checkpoint_dir=directory)
        assert result.resumed == ()
        expected = {f"cell-{cell.index:04d}.ckpt" for cell in result.cells}
        assert {p.name for p in directory.glob("*.ckpt")} == expected

    def test_resume_is_bitwise_equal_to_uninterrupted(self, tmp_path):
        directory = tmp_path / "ckpt"
        clean = run_sweep(_toy(), checkpoint_dir=directory)
        # simulate an interruption: drop alternate cells' checkpoints
        dropped = sorted(directory.glob("*.ckpt"))[::2]
        for path in dropped:
            path.unlink()
        resumed = run_sweep(_toy(), checkpoint_dir=directory, resume=True)
        # frozen float-for-float dataclass equality — bitwise, not approx
        assert resumed.report == clean.report
        kept = {int(p.stem.split("-")[1]) for p in directory.glob("*.ckpt")}
        assert set(resumed.resumed) == kept - {
            int(p.stem.split("-")[1]) for p in dropped
        }
        # restored cells were not re-simulated
        for index in resumed.resumed:
            assert index not in resumed.simulations

    def test_fully_checkpointed_resume_runs_nothing(self, tmp_path):
        directory = tmp_path / "ckpt"
        clean = run_sweep(_toy(), checkpoint_dir=directory)
        resumed = run_sweep(_toy(), checkpoint_dir=directory, resume=True)
        assert resumed.report == clean.report
        assert resumed.simulations == {}
        assert set(resumed.resumed) == {cell.index for cell in clean.cells}

    def test_resume_without_directory_is_parameter_error(self):
        with pytest.raises(ParameterError, match="checkpoint_dir"):
            run_sweep(_toy(), resume=True)

    def test_changed_spec_cannot_reuse_the_directory(self, tmp_path):
        directory = tmp_path / "ckpt"
        run_sweep(_toy(seed=23), checkpoint_dir=directory)
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            run_sweep(_toy(seed=24), checkpoint_dir=directory, resume=True)

    def test_fresh_run_into_same_directory_starts_over(self, tmp_path):
        directory = tmp_path / "ckpt"
        first = run_sweep(_toy(), checkpoint_dir=directory)
        again = run_sweep(_toy(), checkpoint_dir=directory, resume=False)
        assert again.resumed == ()
        assert len(again.simulations) == len(first.cells)
        assert again.report == first.report

    def test_resume_may_change_execution_knobs(self, tmp_path):
        directory = tmp_path / "ckpt"
        clean = run_sweep(_toy(), checkpoint_dir=directory)
        dropped = sorted(directory.glob("*.ckpt"))[1::2]
        for path in dropped:
            path.unlink()
        tuned = _toy(execution=ExecutionSpec(workers=2))
        resumed = run_sweep(tuned, checkpoint_dir=directory, resume=True)
        assert resumed.report == clean.report


class TestKilledMidFlightCli:
    """End to end: SIGINT a running ``repro sweep``, resume, compare."""

    def _spec_file(self, tmp_path):
        # heavy enough (~1 s per cell) that the interrupt lands mid-run
        spec = _toy(duration=1800.0, preset="medium")
        path = tmp_path / "sweep.json"
        path.write_text(spec.to_json())
        return path, spec

    def test_interrupt_then_resume_reproduces_report(self, tmp_path):
        spec_file, spec = self._spec_file(tmp_path)
        ckpt = tmp_path / "ckpt"
        report = tmp_path / "report.json"
        env = dict(os.environ, PYTHONPATH=str(_REPO / "src"))
        cmd = [
            sys.executable, "-m", "repro", "sweep", str(spec_file),
            "--workers", "1",
            "--checkpoint-dir", str(ckpt),
            "--report", str(report),
        ]
        proc = subprocess.Popen(
            cmd,
            cwd=_REPO,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        # wait for the first checkpoint to land, then interrupt
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if len(list(ckpt.glob("*.ckpt"))) >= 1:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.05)
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
        if proc.returncode == 0:
            pytest.skip("sweep finished before the interrupt landed")
        assert proc.returncode == 130
        assert "--resume" in err
        assert str(ckpt) in err
        done_before = {p.name for p in ckpt.glob("*.ckpt")}
        assert done_before  # progress survived the interrupt
        assert not report.exists()  # no torn report

        resumed = subprocess.run(
            cmd + ["--resume"],
            cwd=_REPO,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "resumed" in resumed.stdout
        payload = json.loads(report.read_text())["sweep"]
        restored = payload["resumed_cells"]
        assert {f"cell-{i:04d}.ckpt" for i in restored} == done_before

        # ground truth: the same sweep, uninterrupted, in process
        clean = json.loads(
            json.dumps(run_sweep(spec).report.to_dict())
        )
        assert payload["cells"] == clean["cells"]
