"""Run-scoped telemetry: every run reports only its own events.

:func:`~repro.execution.run_trace` scopes stage seconds, retries and
degradations to one run.  These tests inject events into the real
pipeline (a wrapped ``NetworkEngine.simulate`` records one per network
run) and pin that

* back-to-back runs in one process do not inherit each other's events;
* concurrent ``run_scenarios`` on threads attribute each event to the
  scenario that raised it;
* a sweep's cells share one engine pass, so the pass's events land in
  the sweep's health, which every simulated cell reports, and a second
  sweep does not inherit them;
* closed runs still fold into the process root, so the benchmarks'
  reset/read of the root keeps seeing every event and stage second;
* stage seconds and folds lose no update under thread contention.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from types import SimpleNamespace

import pytest

from repro.execution import telemetry
from repro.execution import (
    make_pool,
    record_degradation,
    record_retry,
    reset_run_health,
    reset_stage_timings,
    run_health,
    run_trace,
    stage_timer,
    stage_timings,
)
from repro.measurement import StreamingMeasurement
from repro.netsim import medium_utilization_link
from repro.network.engine import NetworkEngine
from repro.pipeline import (
    DemandSpec,
    NetworkSpec,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
    WorkloadSpec,
    run_scenario,
    run_scenarios,
)
from repro.pipeline.runner import MEASUREMENT_STAGES
from repro.sweep import run_sweep


def _network(name: str) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        seed=3,
        network=NetworkSpec(
            topology=TopologySpec(preset="parallel-paths", size=2),
            demands=(DemandSpec("src", "dst", preset="low"),),
            routing="ecmp",
            duration=4.0,
        ),
    )


@pytest.fixture(autouse=True)
def clean_root():
    reset_run_health()
    reset_stage_timings()
    yield
    reset_run_health()
    reset_stage_timings()


@pytest.fixture
def bumpy_engine(monkeypatch):
    """Every network run records one degradation named after its spec;
    a name in ``retry_for`` also records a retry."""
    simulate = NetworkEngine.simulate
    retry_for: set[str] = set()

    def recording_simulate(self, topology, demands, **kwargs):
        record_degradation("test-event", kwargs["name"])
        if kwargs["name"] in retry_for:
            record_retry("worker-lost", kwargs["name"])
        return simulate(self, topology, demands, **kwargs)

    monkeypatch.setattr(NetworkEngine, "simulate", recording_simulate)
    return retry_for


def _details(events) -> list[str]:
    return [event.detail for event in events]


class TestBackToBack:
    def test_second_run_reports_only_its_own_events(self, bumpy_engine):
        bumpy_engine.add("first")
        first = run_scenario(_network("first"))
        second = run_scenario(_network("second"))
        assert _details(first.health.retries) == ["first"]
        assert second.health.retries == ()
        assert _details(second.health.degradations) == ["second"]
        assert second.network.health == second.health
        assert second.report()["network"]["health"]["n_retries"] == 0

    def test_closed_runs_fold_into_the_process_root(self, bumpy_engine):
        bumpy_engine.add("first")
        run_scenario(_network("first"))
        run_scenario(_network("second"))
        root = run_health()
        assert _details(root.retries) == ["first"]
        assert _details(root.degradations) == ["first", "second"]
        assert stage_timings()["network.links"] > 0


class TestConcurrentRuns:
    def test_run_scenarios_on_threads_keep_events_apart(self, bumpy_engine):
        results = run_scenarios(
            [_network("s0"), _network("s1")], workers=2
        )
        assert [_details(r.health.degradations) for r in results] == [
            ["s0"], ["s1"]
        ]
        assert [
            _details(r.network.health.degradations) for r in results
        ] == [["s0"], ["s1"]]

    def test_thread_tasks_record_into_the_dispatching_run(self):
        def task(i):
            record_degradation("task", str(i))
            return i

        with run_trace():
            with make_pool("thread", 2) as pool:
                pool.map_ordered(task, range(4))
            inside = run_health()
        assert sorted(_details(inside.degradations)) == ["0", "1", "2", "3"]
        assert len(run_health().degradations) == 4  # folded into root


class TestContention:
    def test_no_lost_updates_on_a_shared_trace(self, monkeypatch):
        """Stage seconds and folds are read-modify-writes on the trace
        every task shares; a lost update breaks the exact totals."""
        clock = threading.local()

        def perf_counter():  # per-thread ticks: every block lasts 1 s
            clock.ticks = getattr(clock, "ticks", 0) + 1
            return float(clock.ticks)

        monkeypatch.setattr(
            telemetry, "time", SimpleNamespace(perf_counter=perf_counter)
        )

        def task(i):
            with run_trace():  # folds into the shared trace on exit
                with stage_timer("hot"):
                    pass
                record_retry("task", str(i))
            for _ in range(10_000):
                with stage_timer("hot"):
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with run_trace():
                with make_pool("thread", 8) as pool:
                    pool.map_ordered(task, range(16))
                seconds = stage_timings()["hot"]
                n_retries = len(run_health().retries)
        finally:
            sys.setswitchinterval(interval)
        assert seconds == 16 * 10_001
        assert n_retries == 16


class TestMeasurementShards:
    """Binning a chunk into shard tasks is charged to
    ``measurement.shards``: with a clock that ticks once per
    ``shard_tasks`` call and stands still otherwise, the label holds
    exactly one second per call."""

    @pytest.fixture
    def binning_clock(self, monkeypatch):
        now = [0.0]
        calls = []
        shard_tasks = StreamingMeasurement.shard_tasks

        def ticking_shard_tasks(self, packets):
            calls.append(len(packets))
            now[0] += 1.0
            return shard_tasks(self, packets)

        monkeypatch.setattr(
            telemetry, "time", SimpleNamespace(perf_counter=lambda: now[0])
        )
        monkeypatch.setattr(
            StreamingMeasurement, "shard_tasks", ticking_shard_tasks
        )
        return calls

    def test_update_charges_binning(self, binning_clock):
        packets = medium_utilization_link(duration=2.0).synthesize(
            seed=1
        ).trace.packets
        measurement = StreamingMeasurement()
        half = packets.size // 2
        measurement.update(packets[:half])
        measurement.update(packets[half:])
        measurement.finalize()
        assert len(binning_clock) == 2
        assert stage_timings()["measurement.shards"] == 2.0

    def test_network_engine_charges_binning(self, binning_clock):
        run_scenario(_network("binned"))
        assert binning_clock
        assert stage_timings()["measurement.shards"] == len(binning_clock)


class TestSweepCells:
    def test_sweep_pass_events_land_in_the_sweep_health(self, monkeypatch):
        simulate_many = NetworkEngine.simulate_many

        def recording_simulate_many(self, runs, **kwargs):
            for run in runs:
                record_degradation("test-event", run.name)
            return simulate_many(self, runs, **kwargs)

        monkeypatch.setattr(
            NetworkEngine, "simulate_many", recording_simulate_many
        )
        spec = dataclasses.replace(
            _network("toy"),
            sweep=SweepSpec(
                demand_factors=(1.0,), failures="single", simulate="all"
            ),
        )
        spec = dataclasses.replace(
            spec, sweep=spec.sweep.with_execution(workers=2)
        )
        result = run_sweep(spec)
        assert len(result.simulations) == len(result.cells)
        assert sorted(_details(result.health.degradations)) == sorted(
            cell.spec.name for cell in result.cells
        )
        for cell in result.simulations.values():
            assert cell.health == result.health
        again = run_sweep(dataclasses.replace(spec, name="again"))
        assert sorted(_details(again.health.degradations)) == sorted(
            cell.spec.name for cell in again.cells
        )


class TestSingleLinkReport:
    def test_report_carries_the_runs_health(self, monkeypatch):
        from repro.pipeline.stages import Estimate

        estimate = Estimate.run

        def bumpy_estimate(self, context):
            record_retry("worker-lost", "injected")
            return estimate(self, context)

        spec = ScenarioSpec(
            name="short-link",
            seed=5,
            workload=WorkloadSpec(preset="low", duration=5.0),
        )
        clean = run_scenario(spec, stages=MEASUREMENT_STAGES)
        monkeypatch.setattr(Estimate, "run", bumpy_estimate)
        bumpy = run_scenario(spec, stages=MEASUREMENT_STAGES)
        a, b = clean.report(), bumpy.report()
        assert a.pop("health")["n_retries"] == 0
        assert b.pop("health")["n_retries"] == 1
        assert a == b  # a recovery changes nothing else
