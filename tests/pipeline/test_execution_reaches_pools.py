"""Every pool a stage opens runs on its spec section's execution.

A section's ``execution`` (``workers``, ``backend``, ``retry``) must reach
each pool the engines behind it open: a pool that drops ``retry`` runs
without the process backend's watchdog, so a crashed worker hangs the
run instead of being re-executed.  ``make_pool`` is spied in every
engine module; each pool opened on a section's behalf must carry that
section's workers, backend and the very same ``RetryPolicy`` object.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.__main__ import main
from repro.execution import ExecutionSpec, RetryPolicy, make_pool
from repro.interop import write_netflow5
from repro.pipeline import (
    AnomalySpec,
    CalibrationSpec,
    DemandSpec,
    MeasurementSpec,
    NetworkSpec,
    ScenarioSpec,
    SweepSpec,
    SynthesisSpec,
    TopologySpec,
    WorkloadSpec,
    run_scenario,
)

from ..calibration.test_golden_report import golden_records

#: Engine modules that open pools, by the spec section that drives them.
POOL_MODULES = {
    "synthesis": "repro.synthesis.engine",
    "measurement": "repro.measurement.engine",
    "calibration": "repro.calibration.calibrator",
    "network": "repro.network.engine",
    "generation": "repro.generation.engine",
}

POLICY = RetryPolicy(max_retries=1, timeout_s=60.0)
EXECUTION = ExecutionSpec(workers=2, backend="thread", retry=POLICY)


@pytest.fixture()
def opened(monkeypatch):
    """``(module, backend, workers, retry)`` of every pool opened."""
    import importlib

    calls = []
    for module_name in POOL_MODULES.values():
        module = importlib.import_module(module_name)

        def spy(backend="thread", workers=1, *, retry=None, _name=module_name,
                **kwargs):
            calls.append((_name, backend, workers, retry))
            return make_pool(backend, workers, retry=retry, **kwargs)

        monkeypatch.setattr(module, "make_pool", spy)
    return calls


def _link_spec(**sections) -> ScenarioSpec:
    return ScenarioSpec(
        name="pools",
        seed=3,
        workload=WorkloadSpec(preset="low", duration=10.0),
        generation=None,
        **sections,
    )


def _network(**kwargs) -> NetworkSpec:
    return NetworkSpec(
        topology=TopologySpec(preset="parallel-paths", size=2),
        demands=(DemandSpec("src", "dst", preset="low"),),
        duration=8.0,
        **kwargs,
    )


SPECS = {
    "synthesis": _link_spec(synthesis=SynthesisSpec(execution=EXECUTION)),
    "measurement": _link_spec(
        measurement=MeasurementSpec(execution=EXECUTION)
    ),
    "calibration": _link_spec(
        calibration=CalibrationSpec(
            families=("lognormal",), restarts=1, execution=EXECUTION
        )
    ),
    "network": ScenarioSpec(
        name="pools-network", network=_network(execution=EXECUTION)
    ),
    "sweep": ScenarioSpec(
        name="pools-sweep",
        network=_network(),
        sweep=SweepSpec(
            demand_factors=(1.0,), failures="none", simulate="all",
            execution=EXECUTION,
        ),
    ),
}


def _section_pools(section: str, calls) -> list:
    """The pools opened on ``section``'s behalf.

    Network and sweep runs drive every pool they open; in a single-link
    run each section owns the pools of its engine's module.
    """
    if section in ("network", "sweep"):
        return calls
    return [call for call in calls if call[0] == POOL_MODULES[section]]


@pytest.mark.parametrize("section", sorted(SPECS))
def test_every_pool_gets_the_section_execution(section, opened):
    run_scenario(SPECS[section])
    pools = _section_pools(section, opened)
    assert pools, f"the {section} run opened no pool"
    for module, backend, workers, retry in pools:
        assert (backend, workers) == ("thread", 2), module
        assert retry is POLICY, module



def _synthesis_pools(calls) -> list:
    return [call[1:] for call in calls if call[0] == POOL_MODULES["synthesis"]]


def test_anomaly_synthesis_gets_the_section_execution(opened):
    # an anomaly run synthesises in memory before injecting the anomaly
    anomaly = AnomalySpec(kind="flood", start=2.0, duration=3.0)
    spec = _link_spec(
        synthesis=SynthesisSpec(execution=EXECUTION), anomaly=anomaly
    )
    result = run_scenario(spec)
    assert _synthesis_pools(opened) == [("thread", 2, POLICY)]
    default = run_scenario(_link_spec(anomaly=anomaly))
    assert result.trace.packets.tobytes() == default.trace.packets.tobytes()


def test_closed_loop_synthesis_gets_the_calibration_execution(opened):
    calibration = CalibrationSpec(
        families=("lognormal",), restarts=1, validate=True,
        validate_duration=5.0,
    )
    spec = _link_spec(
        calibration=dataclasses.replace(calibration, execution=EXECUTION)
    )
    result = run_scenario(spec)
    # the Synthesize stage's default section, then the closed loop's
    assert _synthesis_pools(opened) == [
        ("thread", 1, None), ("thread", 2, POLICY),
    ]
    default = run_scenario(_link_spec(calibration=calibration))
    assert (
        result.calibration.closed_loop.to_dict()
        == default.calibration.closed_loop.to_dict()
    )


def test_cli_closed_loop_gets_the_calibrate_flags(opened, tmp_path, capsys):
    archive = tmp_path / "golden.nf5"
    write_netflow5(golden_records(), archive)
    code = main([
        "calibrate", str(archive), "--validate", "--validate-duration", "5",
        "--workers", "2", "--backend", "thread",
    ])
    # the verdict (exit 0 pass, 3 fail) is not under test, only the pool
    assert code in (0, 3), capsys.readouterr().err
    assert _synthesis_pools(opened) == [("thread", 2, None)]
