"""Sweep common random numbers — the variance they take out of a comparison.

A capacity sweep asks how much a failure moves a link's SLA ratio.  Its
cells pin each demand's synthesis seed to the (demand, growth factor)
pair (:func:`repro.sweep.realisation_seed`), so a failure cell and the
baseline at the same factor carry the same flows: common random numbers
(CRN).  Their difference then reflects the failure, not resampling noise.

This benchmark measures that claim on the ``abilene-single-failure-2x``
grid reduced to one growth factor (1.5) over a 10 s horizon, every cell
simulated, for ``SEEDS`` scenario seeds.  For each failure cell it takes
``d = worst ratio(failure) - worst ratio(baseline)`` and its standard
deviation across the seeds, then averages that over the failure cells,
twice:

* **CRN** — the cell specs as :func:`repro.sweep.expand_cells` writes
  them;
* **independent** — the same specs with every cell's demand seeds
  replaced by draws of their own (``SeedSequence([seed, cell, demand])``),
  so no two cells share a realisation.

The gate: CRN's standard deviation is lower.  The datapoint lands in the
``crn`` section of ``BENCH_sweep.json``; set ``REPRO_BENCH_SWEEP_JSON``
to redirect it.
A quick run (``REPRO_BENCH_QUICK=1``) writes ``BENCH_sweep_quick.json``.

Run directly (``python benchmarks/bench_sweep_crn.py``) or via pytest
(``pytest benchmarks/bench_sweep_crn.py -s``).
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import bench_json_path, print_header, run_once

from repro.network import NetworkEngine
from repro.pipeline import SimulateNetwork, default_registry
from repro.sweep import expand_cells

SCENARIO = "abilene-single-failure-2x"

#: Scenario seeds the standard deviations are taken over.
SEEDS = tuple(range(20))


def _spec(seed: int):
    spec = default_registry().get(SCENARIO)
    return dataclasses.replace(
        spec,
        seed=seed,
        network=dataclasses.replace(spec.network, duration=10.0),
        sweep=dataclasses.replace(
            spec.sweep, demand_factors=(1.5,), simulate="all"
        ),
    )


def _independent(cell):
    """``cell``'s spec with demand seeds no other cell shares."""
    network = cell.spec.network
    children = np.random.SeedSequence([cell.seed, cell.index]).spawn(
        len(network.demands)
    )
    demands = tuple(
        dataclasses.replace(demand, seed=int(child.generate_state(1)[0]))
        for demand, child in zip(network.demands, children)
    )
    return dataclasses.replace(
        cell.spec, network=dataclasses.replace(network, demands=demands)
    )


def _worst_ratios(specs, sla_utilization):
    """Per cell spec: the worst simulated SLA ratio over its links."""
    simulations = NetworkEngine(workers=1).simulate_many(
        [SimulateNetwork.network_run(spec) for spec in specs],
        **SimulateNetwork.knobs(specs[0]),
    )
    return [
        max(
            link.required_capacity_bps
            / (sla_utilization * link.capacity_bps)
            for link in simulation.simulated_links
        )
        for simulation in simulations
    ]


def _failure_deltas(seed, independent):
    """Per failure cell: its worst ratio minus the baseline's."""
    spec = _spec(seed)
    cells = expand_cells(spec)
    specs = [_independent(c) if independent else c.spec for c in cells]
    ratios = _worst_ratios(specs, spec.sweep.sla_utilization)
    baseline = next(r for c, r in zip(cells, ratios) if not c.failure)
    return [r - baseline for c, r in zip(cells, ratios) if c.failure]


def test_crn_lowers_the_variance_of_failure_deltas(benchmark):
    def build():
        out = {}
        for independent in (False, True):
            t0 = time.perf_counter()
            deltas = np.array(
                [_failure_deltas(seed, independent) for seed in SEEDS]
            )
            out[independent] = (deltas, time.perf_counter() - t0)
        return out

    runs = run_once(benchmark, build)
    (crn, t_crn), (ind, t_ind) = runs[False], runs[True]
    sd_crn = float(np.mean(np.std(crn, axis=0, ddof=1)))
    sd_ind = float(np.mean(np.std(ind, axis=0, ddof=1)))

    print_header(
        f"SWEEP CRN - {SCENARIO} at x1.5 over 10 s: {crn.shape[1]} "
        f"failure cells x {len(SEEDS)} seeds"
    )
    print(f"  {'seeding':>14s} {'sd(d)':>10s} {'time (s)':>10s}")
    print(f"  {'CRN':>14s} {sd_crn:10.5f} {t_crn:10.2f}")
    print(f"  {'independent':>14s} {sd_ind:10.5f} {t_ind:10.2f}")
    print(f"  d = failure worst ratio - baseline worst ratio; CRN cuts its "
          f"sd {sd_ind / sd_crn:.2f}x")

    out_path = bench_json_path("sweep")
    data = json.loads(out_path.read_text()) if out_path.exists() else {}
    data["crn"] = {
        "benchmark": "sweep_crn",
        "scenario": SCENARIO,
        "demand_factor": 1.5,
        "duration_s": 10.0,
        "seeds": len(SEEDS),
        "failure_cells": int(crn.shape[1]),
        "sd_delta_crn": sd_crn,
        "sd_delta_independent": sd_ind,
        "crn_s": float(t_crn),
        "independent_s": float(t_ind),
    }
    out_path.write_text(json.dumps(data, indent=2) + "\n")
    print(f"  wrote datapoint -> {out_path}")

    assert sd_crn < sd_ind, (
        f"common random numbers did not lower the sd of the failure "
        f"deltas: {sd_crn:.5f} against {sd_ind:.5f} with independent seeds"
    )


if __name__ == "__main__":  # pragma: no cover - direct invocation
    pytest.main([__file__, "-s", "--benchmark-disable"])
