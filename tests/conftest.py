"""Shared fixtures: a small synthetic trace and flow populations.

Session-scoped so the (relatively) expensive link synthesis runs once per
pytest invocation.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core import EmpiricalEnsemble
from repro.experiments import DELTA, SCALED_TIMEOUT, measurement_from_result
from repro.flows import export_five_tuple_flows, export_prefix_flows
from repro.netsim import medium_utilization_link
from repro.pipeline import (
    MEASUREMENT_STAGES,
    EstimationSpec,
    FlowAccountingSpec,
    ScenarioSpec,
    run_scenario,
)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def flow_population():
    """A reference heavy-tail-ish (sizes, durations) sample."""
    gen = np.random.default_rng(7)
    n = 5000
    sizes = gen.pareto(2.2, n) * 8000.0 + 3000.0
    rates = gen.lognormal(np.log(2e4), 0.5, n)
    durations = sizes / rates
    return sizes, durations


@pytest.fixture(scope="session")
def ensemble(flow_population):
    sizes, durations = flow_population
    return EmpiricalEnsemble(sizes, durations)


@pytest.fixture(scope="session")
def synthesis():
    """One medium-utilisation synthetic link interval (60 s, seeded)."""
    return medium_utilization_link(duration=60.0).synthesize(seed=11)


@pytest.fixture(scope="session")
def trace(synthesis):
    return synthesis.trace


@pytest.fixture(scope="session")
def five_tuple_flows(trace):
    return export_five_tuple_flows(trace, timeout=8.0, keep_packet_map=True)


@pytest.fixture(scope="session")
def prefix_flows(trace):
    return export_prefix_flows(trace, timeout=8.0)


@pytest.fixture(scope="session")
def measure_interval(trace):
    """The section VI loop on the shared trace, through the pipeline.

    ``measure_interval(kind, seed)`` returns the scatter point and the
    exported flows; results are cached per argument pair.
    """

    @functools.cache
    def measure(kind="five_tuple", seed=-1):
        spec = ScenarioSpec(
            name=trace.name,
            workload=None,
            flows=FlowAccountingSpec(kind=kind, timeout=SCALED_TIMEOUT),
            estimation=EstimationSpec(delta=DELTA),
            generation=None,
        )
        result = run_scenario(spec, trace=trace, stages=MEASUREMENT_STAGES)
        point = measurement_from_result(result, seed=seed)
        return point, result.accounting.flows

    return measure
