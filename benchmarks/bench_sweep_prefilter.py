"""Sweep pre-filter — closed-form triage vs simulating every cell.

The capacity-planning sweep (:mod:`repro.sweep`) claims the moment-
superposition pre-filter settles most cells without running the packet-
level :class:`repro.network.NetworkEngine`.  This benchmark runs the
``abilene-single-failure-2x`` registry sweep three ways and checks the
claim end to end:

* **analytic only** (``simulate="none"``) — the closed form's own cost
  over the full 45-cell grid;
* **pre-filtered** (``simulate="marginal"``, the default) — the service
  as shipped: marginal cells simulated, the rest settled analytically;
* **exhaustive** (``simulate="all"``) — every cell through the engine,
  the counterfactual the pre-filter avoids and the ground truth for the
  soundness check.

Two gates: the pre-filter must settle at least half of the grid, and it
must be *sound* — no cell the closed form marked ``ok`` may be an SLA
breach in the exhaustive run.  The datapoint lands in
``BENCH_sweep.json`` (CI uploads it as an artifact); set
``REPRO_BENCH_SWEEP_JSON`` to redirect it.
A quick run (``REPRO_BENCH_QUICK=1``) writes ``BENCH_sweep_quick.json``.

Run directly (``python benchmarks/bench_sweep_prefilter.py``) or via
pytest (``pytest benchmarks/bench_sweep_prefilter.py -s``).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import bench_json_path, print_header, run_once

from repro.pipeline import apply_quick_mode, default_registry
from repro.sweep import run_sweep

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

SCENARIO = "abilene-single-failure-2x"


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _sweep_spec(simulate: str):
    spec = apply_quick_mode(default_registry().get(SCENARIO))
    return replace(spec, sweep=replace(spec.sweep, simulate=simulate))


def test_sweep_prefilter(benchmark):
    def build():
        analytic, t_analytic = _timed(
            lambda: run_sweep(_sweep_spec("none"))
        )
        prefiltered, t_prefiltered = _timed(
            lambda: run_sweep(_sweep_spec("marginal"))
        )
        exhaustive, t_exhaustive = _timed(
            lambda: run_sweep(_sweep_spec("all"))
        )
        return (
            analytic, t_analytic,
            prefiltered, t_prefiltered,
            exhaustive, t_exhaustive,
        )

    (
        analytic, t_analytic,
        prefiltered, t_prefiltered,
        exhaustive, t_exhaustive,
    ) = run_once(benchmark, build)

    report = prefiltered.report
    truth = {cell.index: cell for cell in exhaustive.report.cells}
    speedup = t_exhaustive / t_prefiltered

    print_header(
        f"SWEEP PRE-FILTER - {SCENARIO}: {report.n_cells} cells "
        f"({len(report.demand_factors)} growth factors x "
        f"{report.failures} failures)"
        + ("  [quick mode; unset REPRO_BENCH_QUICK for the full run]"
           if QUICK else "")
    )
    print(f"  {'configuration':>28s} {'time (s)':>10s} {'simulated':>10s}")
    for label, t, result in (
        ("analytic only", t_analytic, analytic),
        ("pre-filtered (marginal)", t_prefiltered, prefiltered),
        ("exhaustive (all cells)", t_exhaustive, exhaustive),
    ):
        print(f"  {label:>28s} {t:10.2f} "
              f"{result.report.n_simulated:10d}")
    print(f"  pre-filter settled {report.n_prefiltered}/{report.n_cells} "
          f"cells analytically ({report.n_prefiltered / report.n_cells:.0%})"
          f", {speedup:.2f}x faster than exhaustive")

    # soundness against ground truth: every cell the closed form settled
    # as "ok" must be ok in the exhaustive engine run too
    missed = [
        cell.index
        for cell in report.cells
        if cell.method == "analytic"
        and cell.verdict == "ok"
        and truth[cell.index].verdict == "breach"
    ]
    print(f"  soundness: {len(missed)} analytically-cleared cell(s) "
          "breach in the exhaustive run")

    # record the datapoint before any gate can fail — a regression run
    # is exactly the one whose numbers must survive
    out_path = bench_json_path("sweep")
    # other benches keep their own sections of the file
    data = json.loads(out_path.read_text()) if out_path.exists() else {}
    data.update({
        "benchmark": "sweep_prefilter",
        "quick": QUICK,
        "scenario": SCENARIO,
        "n_cells": int(report.n_cells),
        "n_prefiltered": int(report.n_prefiltered),
        "n_simulated": int(report.n_simulated),
        "margin": float(report.margin),
        "sla_utilization": float(report.sla_utilization),
        "analytic_s": float(t_analytic),
        "prefiltered_s": float(t_prefiltered),
        "exhaustive_s": float(t_exhaustive),
        "speedup_vs_exhaustive": float(speedup),
        "breaches_prefiltered": len(report.breaches),
        "breaches_exhaustive": len(exhaustive.report.breaches),
        "missed_breaches": len(missed),
    })
    out_path.write_text(json.dumps(data, indent=2) + "\n")
    print(f"  wrote datapoint -> {out_path}")

    # the tentpole's acceptance bar: at least half the grid settles
    # without touching the packet-level engine
    assert report.n_prefiltered * 2 >= report.n_cells, (
        f"pre-filter settled only {report.n_prefiltered} of "
        f"{report.n_cells} cells"
    )
    assert not missed, (
        f"pre-filter dropped breaching cell(s) {missed} — the analytic "
        "band is too narrow"
    )
    # the analytic-only pass must be cheap relative to any engine run
    assert report.n_simulated > 0 and t_analytic < t_exhaustive


if __name__ == "__main__":  # pragma: no cover - direct invocation
    pytest.main([__file__, "-s", "--benchmark-disable"])
