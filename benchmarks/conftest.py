"""Shared fixtures for the per-figure/per-table benchmarks.

Heavy inputs (the 7-link validation sweep) are computed once per session
and reused by several benchmarks.  Every benchmark prints the rows/series
the corresponding paper exhibit reports, so `pytest benchmarks/
--benchmark-only -s` doubles as the reproduction report.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments import cov_validation_points
from repro.netsim import medium_utilization_link

#: ``REPRO_BENCH_QUICK=1`` shrinks the heavy fixtures so a benchmark can
#: double as a CI smoke stage (shorter intervals, one seed per workload).
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: Seeds per workload for the validation scatter (more points, more runtime).
VALIDATION_SEEDS = (0,) if QUICK else (0, 1)

#: Length (seconds) of the shared reference interval.
REFERENCE_DURATION = 60.0 if QUICK else 120.0


def bench_json_path(name: str) -> Path:
    """The file a bench writes its ``name`` perf datapoint to.

    ``REPRO_BENCH_<NAME>_JSON`` names it; otherwise a quick run writes
    ``BENCH_<name>_quick.json``, so it never overwrites the full-size
    ``BENCH_<name>.json`` datapoints the repository keeps.
    """
    default = f"BENCH_{name}_quick.json" if QUICK else f"BENCH_{name}.json"
    return Path(os.environ.get(f"REPRO_BENCH_{name.upper()}_JSON", default))


def print_header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


@pytest.fixture(scope="session")
def validation_points_5tuple():
    return cov_validation_points(
        flow_kind="five_tuple", seeds=VALIDATION_SEEDS, workers=2
    )


@pytest.fixture(scope="session")
def validation_points_prefix():
    return cov_validation_points(
        flow_kind="prefix", seeds=VALIDATION_SEEDS, workers=2
    )


@pytest.fixture(scope="session")
def reference_synthesis():
    """One medium-utilisation interval shared by the figure benches."""
    return medium_utilization_link(duration=REFERENCE_DURATION).synthesize(
        seed=42
    )


@pytest.fixture(scope="session")
def reference_trace(reference_synthesis):
    return reference_synthesis.trace


def run_once(benchmark, fn):
    """Run a benchmark body exactly once (workloads are too heavy for the
    default calibrating repetition) and return its result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
