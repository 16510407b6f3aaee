"""Capacity-planning sweeps: growth x failures x routing over a backbone.

The paper's section VII dimensioning rule answers "what capacity does
*this link* need"; an operator asks the topology-wide version — *which
of my links breaches its SLA under any single failure at 2x demand?*
This package answers that with a declarative sweep over a base
``network`` scenario:

* :func:`~repro.sweep.cells.expand_cells` — the cartesian product of
  demand growth factors, auto-enumerated fibre failures (N-1 / N-2) and
  routing policies, each cell a complete runnable
  :class:`~repro.pipeline.ScenarioSpec` whose demands pin common random
  numbers: one synthesis seed per (demand, growth factor);
* :mod:`~repro.sweep.prefilter` — the closed-form moment-superposition
  assessment of every cell against a configurable SLA band, so the
  packet-level engine only runs where the analytic answer is marginal;
* :func:`run_sweep` — the service: assess everything, simulate the
  marginal cells in one network-engine pass, emit one ranked
  :class:`~repro.sweep.report.SweepReport` (JSON + table).

Quickstart::

    from repro.pipeline import default_registry
    from repro.sweep import run_sweep

    result = run_sweep(default_registry().get("abilene-single-failure-2x"))
    print(result.report.table())
"""

from .cells import (
    SweepCell,
    enumerate_failures,
    enumerate_fibres,
    expand_cells,
    realisation_seed,
    scale_demand,
)
from .prefilter import (
    CellAssessment,
    LinkAssessment,
    assess_cell,
    base_demands,
)
from .report import CellResult, SweepReport, rank_cells
from .service import SweepResult, run_sweep

__all__ = [
    # cells
    "SweepCell",
    "enumerate_fibres",
    "enumerate_failures",
    "expand_cells",
    "realisation_seed",
    "scale_demand",
    # prefilter
    "CellAssessment",
    "LinkAssessment",
    "assess_cell",
    "base_demands",
    # report
    "CellResult",
    "SweepReport",
    "rank_cells",
    # service
    "SweepResult",
    "run_sweep",
]
