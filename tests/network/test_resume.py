"""Checkpoint/resume of a whole network run (``NetworkEngine.simulate``).

The contract mirrors the sweep's (``tests/sweep/test_resume.py``):

* a partly checkpointed run, resumed, is bitwise-equal to an
  uninterrupted one;
* restored links are not measured again, and a demand is synthesised
  only while some link it crosses still needs measuring;
* a checkpoint directory never serves a different run: a changed demand
  workload, event list or link capacity fails with
  :class:`CheckpointError` instead of returning the old links.
"""

from __future__ import annotations

import pytest

import repro.network.engine as engine_module
import repro.synthesis.engine as synthesis_engine
from repro.exceptions import CheckpointError
from repro.netsim import table_i_workload
from repro.network import (
    DemandMatrix,
    LinkOutage,
    NetworkDemand,
    NetworkEngine,
    parallel_paths,
)

DURATION = 8.0
SEED = 4


def demands(row=4):
    """An ECMP demand over both branches plus one on ``mid0 -> dst``."""
    return DemandMatrix([
        NetworkDemand(
            "src", "dst", table_i_workload(row, duration=DURATION)
        ),
        NetworkDemand(
            "mid0", "dst", table_i_workload(6, duration=DURATION)
        ),
    ])


def simulate(row=4, *, topology=None, events=(), **kwargs):
    return NetworkEngine(chunk=20_000).simulate(
        topology if topology is not None else parallel_paths(2),
        demands(row),
        events=events,
        seed=SEED,
        **kwargs,
    )


def digest(simulation):
    out = [simulation.report().to_dict()]
    for entry in simulation.links.values():
        if entry.series is not None:
            out.append((
                entry.series.values.tobytes(),
                entry.flows.starts.tobytes(),
                entry.flows.ends.tobytes(),
                entry.flows.sizes.tobytes(),
            ))
    return out


@pytest.fixture(scope="module")
def uninterrupted():
    return simulate()


@pytest.fixture
def counters(monkeypatch):
    """Count synthesised cells and the links finalised after measuring."""
    cells, finished = [], []
    cell = synthesis_engine.synthesize_cell
    finish = engine_module._finish_link

    def counting_cell(plan, k, seed, times=None):
        cells.append(k)
        return cell(plan, k, seed, times)

    def counting_finish(link, *args):
        finished.append(link)
        return finish(link, *args)

    monkeypatch.setattr(synthesis_engine, "synthesize_cell", counting_cell)
    monkeypatch.setattr(engine_module, "_finish_link", counting_finish)
    return cells, finished


def n_cells(workload) -> int:
    return workload.synthesize_chunks(seed=0).plan.n_cells


class TestResume:
    def test_partial_checkpoint_resumes_bitwise(self, tmp_path, uninterrupted):
        ckpt = tmp_path / "ckpt"
        simulate(checkpoint_dir=ckpt)
        entries = sorted(ckpt.glob("link-*.ckpt"))
        assert len(entries) == 4  # every link a demand crosses
        for entry in entries[::2]:
            entry.unlink()
        resumed = simulate(checkpoint_dir=ckpt, resume=True)
        assert digest(resumed) == digest(uninterrupted)

    def test_restored_links_are_not_measured_again(
        self, tmp_path, uninterrupted, counters
    ):
        cells, finished = counters
        ckpt = tmp_path / "ckpt"
        simulate(checkpoint_dir=ckpt)
        position = list(uninterrupted.links).index(("src", "mid1"))
        (ckpt / f"link-{position:04d}.ckpt").unlink()
        cells.clear()
        finished.clear()
        resumed = simulate(checkpoint_dir=ckpt, resume=True)
        # only the lost link is measured; its one demand is synthesised
        # again, the demand whose links were all restored is not
        assert finished == [("src", "mid1")]
        assert len(cells) == n_cells(demands()[0].workload)
        assert digest(resumed) == digest(uninterrupted)

    def test_fully_restored_run_synthesises_nothing(
        self, tmp_path, uninterrupted, counters
    ):
        cells, finished = counters
        ckpt = tmp_path / "ckpt"
        simulate(checkpoint_dir=ckpt)
        cells.clear()
        finished.clear()
        resumed = simulate(checkpoint_dir=ckpt, resume=True)
        assert cells == [] and finished == []
        assert digest(resumed) == digest(uninterrupted)


class TestStaleCheckpoint:
    """Each input that changes a result is part of the fingerprint."""

    @pytest.fixture
    def ckpt(self, tmp_path):
        path = tmp_path / "ckpt"
        simulate(checkpoint_dir=path)
        return path

    def test_changed_demand_workload(self, ckpt):
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            simulate(row=6, checkpoint_dir=ckpt, resume=True)

    def test_changed_events(self, ckpt):
        outage = LinkOutage(("src", "mid1"), start=2.0, duration=3.0)
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            simulate(events=[outage], checkpoint_dir=ckpt, resume=True)

    def test_changed_link_capacity(self, ckpt):
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            simulate(
                topology=parallel_paths(2, capacity_bps=30e6),
                checkpoint_dir=ckpt,
                resume=True,
            )
