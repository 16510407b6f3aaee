"""The chaos battery: every injected failure recovers identically.

:mod:`repro.faults` arms exactly one deterministic failure per run;
these tests pin the recovery contract of the resilience layer:

* a crashed or hung worker is detected by the watchdog, the pool is
  respawned, and the lost suffix re-executes — with output bitwise
  identical to a clean run and one named ``worker-lost`` retry in
  :class:`~repro.execution.RunHealth`;
* a deterministic task exception propagates immediately without
  burning retries;
* exhausted retries fail loudly with :class:`WorkerFailure` naming the
  task and deadline;
* shared-memory exhaustion degrades to pickle transport, recorded as a
  ``shm-exhausted`` degradation, with identical results.

Every test also asserts nothing leaks into ``/dev/shm``.
"""

from __future__ import annotations

import dataclasses
import glob
import json

import numpy as np
import pytest

from repro import faults
from repro.exceptions import (
    FaultInjectedError,
    ParameterError,
    WorkerFailure,
)
from repro.execution import (
    RetryPolicy,
    SharedMemoryPool,
    make_pool,
    record_degradation,
    reset_run_health,
    run_health,
)
from repro.faults import FaultPlan
from repro.pipeline import (
    DemandSpec,
    NetworkSpec,
    ScenarioSpec,
    TopologySpec,
    run_scenario,
)


def _leaked_segments():
    return glob.glob("/dev/shm/repro_shm_*")


@pytest.fixture(autouse=True)
def clean_slate():
    """No armed plan, fresh health, no stray segments — before and after."""
    faults.clear()
    reset_run_health()
    assert not _leaked_segments()
    yield
    faults.clear()
    reset_run_health()
    assert not _leaked_segments()


# -- worker functions (module-level: the process backend pickles them) --


def _seeded_row(i):
    return np.random.default_rng(1000 + i).random(64)


RETRY = RetryPolicy(max_retries=2, timeout_s=4.0, backoff=0.0)


def _clean_run(n=6, workers=2):
    with make_pool("process", workers, retry=RETRY) as pool:
        return pool.map_ordered(_seeded_row, list(range(n)))


class TestFaultPlan:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ParameterError, match="fault kind"):
            FaultPlan(kind="meteor-strike")

    def test_rejects_negative_task(self):
        with pytest.raises(ParameterError, match="task index"):
            FaultPlan(kind="worker-crash", task=-1)

    def test_env_plan_parses(self, monkeypatch):
        monkeypatch.setenv(
            faults.FAULTS_ENV, json.dumps({"kind": "slow-task", "task": 2})
        )
        plan = faults.active_plan()
        assert plan.kind == "slow-task"
        assert plan.task == 2

    def test_env_plan_rejects_bad_json(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "{not json")
        with pytest.raises(ParameterError, match="not valid JSON"):
            faults.active_plan()

    def test_installed_plan_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(
            faults.FAULTS_ENV, json.dumps({"kind": "slow-task"})
        )
        faults.install(FaultPlan(kind="worker-crash", task=1))
        assert faults.active_plan().kind == "worker-crash"


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_retries == 2
        assert policy.timeout_s == 300.0

    def test_validation(self):
        with pytest.raises(ParameterError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ParameterError, match="timeout_s"):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ParameterError, match="backoff"):
            RetryPolicy(backoff=-0.5)


class TestWorkerCrashRecovery:
    def test_output_bitwise_identical_with_named_retry(self):
        baseline = _clean_run()
        faults.install(FaultPlan(kind="worker-crash", task=3))
        reset_run_health()
        recovered = _clean_run()
        for clean, redone in zip(baseline, recovered):
            assert np.array_equal(clean, redone)
        health = run_health()
        assert not health.clean
        assert [event.kind for event in health.retries] == ["worker-lost"]
        assert "task 3/6" in health.retries[0].detail
        assert "attempt 0" in health.retries[0].detail

    def test_crash_on_first_task(self):
        faults.install(FaultPlan(kind="worker-crash", task=0))
        recovered = _clean_run()
        for i, row in enumerate(recovered):
            assert np.array_equal(row, _seeded_row(i))
        assert len(run_health().retries) == 1

    def test_retries_exhausted_fails_loudly(self):
        faults.clear()
        # attempt-independent crash: monkey business via a fault that
        # re-fires is not possible (faults fire on attempt 0 only), so
        # pin the exhaustion path with max_retries=0 instead
        faults.install(FaultPlan(kind="worker-crash", task=2))
        policy = RetryPolicy(max_retries=0, timeout_s=3.0)
        with make_pool("process", 2, retry=policy) as pool:
            with pytest.raises(WorkerFailure, match="task 2/4"):
                pool.map_ordered(_seeded_row, list(range(4)))

    def test_pool_usable_after_worker_failure(self):
        faults.install(FaultPlan(kind="worker-crash", task=1))
        policy = RetryPolicy(max_retries=0, timeout_s=3.0)
        with make_pool("process", 2, retry=policy) as pool:
            with pytest.raises(WorkerFailure):
                pool.map_ordered(_seeded_row, list(range(3)))
            faults.clear()
            out = pool.map_ordered(_seeded_row, list(range(3)))
        for i, row in enumerate(out):
            assert np.array_equal(row, _seeded_row(i))


class TestSlowTaskWatchdog:
    def test_hung_task_recovers_identically(self):
        baseline = _clean_run()
        faults.install(FaultPlan(kind="slow-task", task=4, seconds=30.0))
        reset_run_health()
        recovered = _clean_run()
        for clean, redone in zip(baseline, recovered):
            assert np.array_equal(clean, redone)
        health = run_health()
        assert [event.kind for event in health.retries] == ["worker-lost"]
        assert "task 4/6" in health.retries[0].detail


class TestTaskException:
    def test_propagates_without_burning_retries(self):
        faults.install(FaultPlan(kind="task-exception", task=2))
        with make_pool("process", 2, retry=RETRY) as pool:
            with pytest.raises(FaultInjectedError, match="task 2"):
                pool.map_ordered(_seeded_row, list(range(6)))
        # a deterministic exception is not a lost worker: no retry event
        assert run_health().clean


class TestShmExhaustion:
    def test_degrades_to_pickle_with_identical_results(self):
        # arrays bigger than the slot force one-shot segments; the
        # armed fault makes those allocations fail with ENOSPC
        arrays = [np.random.default_rng(i).random(200_000) for i in range(4)]
        with SharedMemoryPool(2, slot_bytes=1 << 20) as pool:
            baseline = pool.map_ordered(_double, arrays)
        faults.install(FaultPlan(kind="shm-exhaustion", count=2))
        reset_run_health()
        with SharedMemoryPool(2, slot_bytes=1 << 20) as pool:
            degraded = pool.map_ordered(_double, arrays)
        for clean, redone in zip(baseline, degraded):
            assert np.array_equal(clean, redone)
        health = run_health()
        kinds = {event.kind for event in health.degradations}
        assert kinds == {"shm-exhausted"}
        assert "pickle" in health.degradations[0].detail


def _double(arr):
    return arr * 2.0


class TestRunHealthReporting:
    def test_snapshot_round_trips_to_json(self):
        faults.install(FaultPlan(kind="worker-crash", task=1))
        _clean_run(n=4)
        payload = run_health().to_dict()
        assert payload["n_retries"] == 1
        assert payload["retries"][0]["kind"] == "worker-lost"
        json.dumps(payload)  # JSON-able by contract

    def test_reset_clears_events(self):
        faults.install(FaultPlan(kind="worker-crash", task=1))
        _clean_run(n=4)
        assert not run_health().clean
        reset_run_health()
        assert run_health().clean


class TestRunScopedHealth:
    def test_forked_workers_do_not_resend_the_parents_events(self):
        record_degradation("parent-event", "recorded before the fork")
        _clean_run()
        assert [e.kind for e in run_health().degradations] == [
            "parent-event"
        ]

    def test_clean_run_after_a_recovered_one_reports_clean(self):
        spec = ScenarioSpec(
            name="crash-then-clean",
            seed=3,
            network=NetworkSpec(
                topology=TopologySpec(preset="parallel-paths", size=2),
                demands=(DemandSpec("src", "dst", preset="low"),),
                routing="ecmp",
                duration=4.0,
            ),
        )
        spec = dataclasses.replace(
            spec,
            network=spec.network.with_execution(
                workers=2,
                backend="process",
                retry=RetryPolicy(max_retries=2, timeout_s=3.0),
            ),
        )
        faults.install(FaultPlan(kind="worker-crash", task=1))
        recovered = run_scenario(spec)
        faults.clear()
        clean = run_scenario(spec)
        # the plan fires in each of the engine's fan-outs (cells, links)
        kinds = {e.kind for e in recovered.health.retries}
        assert kinds == {"worker-lost"}
        assert recovered.network.health == recovered.health
        assert clean.health.clean
        a, b = clean.report()["network"], recovered.report()["network"]
        assert a.pop("health")["n_retries"] == 0
        assert b.pop("health")["n_retries"] >= 1
        assert json.dumps(a) == json.dumps(b)  # NaN-safe equality
