#!/usr/bin/env python
"""Capacity-planning sweep with `repro.sweep` (section VII, fleet-wide).

The operator's question: *which of my links breaches its SLA under any
single fibre cut, at 1x / 1.5x / 2x demand growth?*  The walkthrough
answers it three ways on the `abilene-single-failure-2x` registry
preset:

1. **Expand** — the sweep axes become 45 concrete cells (baseline + 14
   fibre failures, three growth factors), each a complete
   network-family `ScenarioSpec`.  Seeds are common random numbers:
   one synthesis seed per (demand, growth factor), shared by every
   failure, so a failure cell differs from its baseline by the failure
   alone.
2. **Pre-filter** — the closed-form moment superposition settles most
   cells against the SLA band without synthesizing a single packet.
3. **Simulate the marginal rest** — only cells inside the band run the
   full `NetworkEngine`, in one pass that synthesises each (demand,
   factor) once; the result is one ranked `SweepReport`.

Run:  python examples/capacity_sweep.py
"""

from __future__ import annotations

import dataclasses

from repro.pipeline import default_registry
from repro.sweep import expand_cells, run_sweep

#: Seconds simulated per marginal cell.  The analytic verdicts do not
#: depend on this; stretch it for production-like confidence.
DURATION = 15.0


def load_sweep_spec():
    spec = default_registry().get("abilene-single-failure-2x")
    return dataclasses.replace(
        spec, network=dataclasses.replace(spec.network, duration=DURATION)
    )


def show_cells(spec) -> None:
    print("=== 1. the grid: growth x single-fibre failures ===")
    cells = expand_cells(spec)
    print(f"{len(cells)} cells from "
          f"{len(spec.sweep.demand_factors)} growth factors x "
          "(baseline + 14 fibres); the first few:")
    for cell in cells[:4]:
        seeds = [demand.seed for demand in cell.spec.network.demands[:2]]
        print(f"  #{cell.index:03d}  {cell.label}  (demand seeds "
              f"{seeds[0]}, {seeds[1]}, ...)")
    # every cell is an ordinary scenario: re-run any of them directly
    # with run_scenario(cell.spec) and get the sweep's numbers, bitwise
    print(f"  ... cell specs are plain ScenarioSpecs "
          f"(family {cells[0].spec.family!r})\n")


def run_and_rank(spec) -> None:
    print("=== 2+3. pre-filter, simulate the marginal band, rank ===")
    result = run_sweep(spec)
    report = result.report
    print(f"{report.n_prefiltered}/{report.n_cells} cells settled by the "
          f"closed form; {report.n_simulated} simulated\n")
    print(report.table())

    print("\nworst link per failure case (top 5):")
    worst = sorted(
        report.worst_per_failure().items(),
        key=lambda item: -item[1].worst_ratio,
    )
    for label, cell in worst[:5]:
        a, b = cell.worst_link
        print(f"  {label:<26} -> {a}->{b} at {cell.worst_ratio:.2f}x "
              f"SLA (x{cell.factor:g} growth, {cell.method})")

    print("\nheadroom per growth step:")
    for factor, headroom in report.headroom_per_factor().items():
        verdict = "ok" if headroom > 0 else "BREACHES"
        print(f"  x{factor:<4g} {headroom:+8.1%}  [{verdict}]")


def main() -> None:
    spec = load_sweep_spec()
    show_cells(spec)
    run_and_rank(spec)


if __name__ == "__main__":
    main()
