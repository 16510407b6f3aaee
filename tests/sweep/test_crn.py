"""Common random numbers: one realisation per (demand, factor) per sweep.

A sweep's cells differ only in failed fibres, routing policy and demand
factor, and every cell spec pins each demand's synthesis seed to its
(demand, factor) pair (:func:`~repro.sweep.realisation_seed`), so:

* the engine pass synthesises each (demand, factor) realisation once,
  measures each class once and finishes each tuple of classes once for
  the whole sweep — the counts below pin it on the reduced golden
  sweep (10 s, factor 1.5);
* a cell's result is a pure function of its spec: the same bits run
  alone, inside ``simulate="marginal"``, inside ``simulate="all"`` and
  after an interrupted-then-resumed sweep;
* :meth:`~repro.network.NetworkEngine.simulate_many` gives each run the
  bits of its own :meth:`~repro.network.NetworkEngine.simulate` call.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.network.engine as engine_module
import repro.synthesis.engine as synthesis_engine
from repro.exceptions import ParameterError
from repro.measurement import StreamingMeasurement
from repro.netsim import table_i_workload
from repro.network import (
    DemandMatrix,
    LinkOutage,
    NetworkDemand,
    NetworkEngine,
    NetworkRun,
    SharedResults,
    parallel_paths,
)
from repro.pipeline import default_registry, run_scenario
from repro.sweep import run_sweep


def reduced(simulate: str = "marginal"):
    """The golden sweep: the registry grid at factor 1.5 over 10 s."""
    spec = default_registry().get("abilene-single-failure-2x")
    return dataclasses.replace(
        spec,
        network=dataclasses.replace(spec.network, duration=10.0),
        sweep=dataclasses.replace(
            spec.sweep, demand_factors=(1.5,), simulate=simulate
        ),
    )


@pytest.fixture
def counts(monkeypatch):
    """Synthesised arrival cells, sealed classes and finished links."""
    counts = {"cells": 0, "classes": 0, "links": 0}
    cell = synthesis_engine.synthesize_cell
    seal = StreamingMeasurement.seal
    finish = engine_module._finish_link

    def counting_cell(*args):
        counts["cells"] += 1
        return cell(*args)

    def counting_seal(self):
        counts["classes"] += 1
        return seal(self)

    def counting_finish(*args):
        counts["links"] += 1
        return finish(*args)

    monkeypatch.setattr(synthesis_engine, "synthesize_cell", counting_cell)
    monkeypatch.setattr(StreamingMeasurement, "seal", counting_seal)
    monkeypatch.setattr(engine_module, "_finish_link", counting_finish)
    return counts


def link_bits(simulation) -> dict:
    """Everything each link of a network run measured, as bytes."""
    out = {}
    for link, entry in simulation.links.items():
        if entry.flows is None:
            continue
        flows = entry.flows
        out[link] = (
            flows.starts.tobytes(),
            flows.ends.tobytes(),
            flows.sizes.tobytes(),
            flows.packet_counts.tobytes(),
            np.asarray(flows.keys).tobytes(),
            entry.series.values.tobytes(),
            int(entry.packet_count),
            float(entry.total_bytes),
            int(flows.discarded_packets),
            float(entry.required_capacity_bps),
            float(entry.capacity_bps),
            int(entry.n_demands),
        )
    return out


class TestWorkCounts:
    def test_reduced_sweep_shares_realisations_classes_and_links(
        self, counts
    ):
        result = run_sweep(reduced())
        assert result.report.n_simulated == 6
        # 6 demands x 1 factor, one arrival cell each (per cell: 36)
        assert counts["cells"] == 6
        # distinct classes (per cell: 57) and class tuples (per link: 98)
        assert counts["classes"] == 23
        assert counts["links"] == 38
        n_links = sum(
            len(stage.simulation.simulated_links)
            for stage in result.simulations.values()
        )
        assert n_links == 98

    def test_links_of_one_class_tuple_share_one_result(self):
        result = run_sweep(reduced())
        flows = [
            link.flows
            for stage in result.simulations.values()
            for link in stage.simulation.simulated_links
        ]
        assert len({id(f) for f in flows}) == 38 < len(flows)


class TestPurity:
    """A cell's bits do not depend on which cells share its pass."""

    @pytest.fixture(scope="class")
    def marginal(self):
        return run_sweep(reduced("marginal"))

    @pytest.fixture(scope="class")
    def exhaustive(self):
        return run_sweep(reduced("all"))

    def test_cell_alone_marginal_all_and_resumed_agree(
        self, marginal, exhaustive, tmp_path
    ):
        index = min(marginal.simulations)
        cell = marginal.cells[index]
        alone = link_bits(run_scenario(cell.spec).network.simulation)
        assert alone
        assert link_bits(marginal.simulated(index).simulation) == alone
        assert link_bits(exhaustive.simulated(index).simulation) == alone

        directory = tmp_path / "ckpt"
        run_sweep(reduced("all"), checkpoint_dir=directory)
        for name in (f"cell-{index:04d}.ckpt", "cell-0000.ckpt",
                     "cell-0007.ckpt"):
            (directory / name).unlink(missing_ok=True)
        resumed = run_sweep(
            reduced("all"), checkpoint_dir=directory, resume=True
        )
        assert index in resumed.simulations
        assert link_bits(resumed.simulated(index).simulation) == alone
        assert resumed.report == exhaustive.report

    def test_marginal_cells_match_the_exhaustive_sweep(
        self, marginal, exhaustive
    ):
        by_index = {cell.index: cell for cell in exhaustive.report.cells}
        for cell in marginal.report.cells:
            if cell.method == "simulated":
                assert cell == by_index[cell.index]


DURATION = 8.0


def _demands(row=4):
    return DemandMatrix([
        NetworkDemand("src", "dst", table_i_workload(row, duration=DURATION)),
        NetworkDemand("mid0", "dst", table_i_workload(6, duration=DURATION)),
    ])


class TestSimulateMany:
    def test_each_run_equals_its_own_simulate(self):
        # pinned demand seeds: runs 4 and 5 share realisations but hash
        # flows onto paths with different ECMP salts
        pinned = DemandMatrix(
            dataclasses.replace(demand, seed=7 + i)
            for i, demand in enumerate(_demands())
        )
        runs = [
            NetworkRun(parallel_paths(2), _demands(), seed=4),
            NetworkRun(
                parallel_paths(2),
                _demands(),
                events=(LinkOutage(("src", "mid1"), 2.0, 3.0),),
                seed=4,
            ),
            # same seed, another workload: a realisation of its own
            NetworkRun(parallel_paths(2), _demands(3), seed=4),
            NetworkRun(parallel_paths(2), pinned, seed=4),
            NetworkRun(parallel_paths(2), pinned, seed=5),
        ]
        engine = NetworkEngine(chunk=20_000)
        together = engine.simulate_many(runs, timeout=4.0)
        for run, simulation in zip(runs, together):
            alone = engine.simulate(
                run.topology, run.demands, events=run.events,
                seed=run.seed, timeout=4.0,
            )
            assert link_bits(simulation) == link_bits(alone)
            assert simulation.report().to_dict() == alone.report().to_dict()

    def test_later_passes_reuse_shared_results(self, counts):
        run = NetworkRun(parallel_paths(2), _demands(), seed=4)
        shared = SharedResults()
        engine = NetworkEngine()
        (first,) = engine.simulate_many([run], shared=shared)
        done = dict(counts)
        (again,) = engine.simulate_many([run], shared=shared)
        assert counts == done  # nothing synthesised, measured or fitted
        assert link_bits(again) == link_bits(first)
        with pytest.raises(ParameterError, match="knobs"):
            engine.simulate_many([run], shared=shared, delta=0.5)

    def test_runs_of_one_pass_share_a_duration(self):
        short = DemandMatrix([
            NetworkDemand("src", "dst", table_i_workload(4, duration=4.0))
        ])
        with pytest.raises(ParameterError, match="one duration"):
            NetworkEngine().simulate_many([
                NetworkRun(parallel_paths(2), _demands()),
                NetworkRun(parallel_paths(2), short),
            ])
