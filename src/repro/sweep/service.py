"""The sweep service: expand → assess → (selectively) simulate → rank.

:func:`run_sweep` is the one entry point: it expands the spec's axes
into cells (:func:`~repro.sweep.cells.expand_cells`), runs the
closed-form pre-filter on every cell
(:func:`~repro.sweep.prefilter.assess_cell`), dispatches the full
:class:`~repro.network.NetworkEngine` only on cells the band flags as
marginal (or all / none, per ``sweep.simulate``), fanned out over a
:func:`repro.execution.make_pool` worker pool (``sweep.workers`` ×
``sweep.backend``), and folds everything into one ranked
:class:`~repro.sweep.report.SweepReport`.

Determinism: cell seeds are ``SeedSequence`` children of the scenario
seed (fixed at expansion), each simulated cell runs its own complete
network-family spec through :func:`~repro.pipeline.run_scenario`, and
``map_ordered`` preserves cell order — so results are bitwise identical
for any ``sweep.execution`` setting, and bitwise equal to running any
cell's spec directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..checkpoint import CheckpointStore, map_in_batches, run_fingerprint
from ..exceptions import ParameterError
from ..execution import RunHealth, make_pool, run_health
from .cells import SweepCell, expand_cells
from .prefilter import (
    VERDICT_BREACH,
    VERDICT_MARGINAL,
    VERDICT_OK,
    CellAssessment,
    assess_cell,
    base_demands,
)
from .report import CellResult, SweepReport, rank_cells

__all__ = ["SweepResult", "run_sweep"]


@dataclass(frozen=True)
class SweepResult:
    """Everything one sweep produced: cells, verdicts, engine runs.

    ``health`` is the run's retry/degradation snapshot (see
    :mod:`repro.execution.health`); ``resumed`` lists cell indices whose
    outcomes were loaded from a checkpoint directory instead of being
    re-simulated — those cells have no entry in ``simulations``.
    """

    spec: "object"  # the sweep ScenarioSpec
    cells: tuple[SweepCell, ...]
    assessments: tuple[CellAssessment, ...]  # cell order
    simulations: dict  # cell index -> NetworkStageResult
    report: SweepReport
    health: RunHealth | None = None
    resumed: tuple[int, ...] = field(default_factory=tuple)

    def simulated(self, index: int):
        """The engine run of cell ``index`` (KeyError if pre-filtered)."""
        return self.simulations[index]


def _simulate_cell(cell):
    """Run one marginal cell's full network spec (worker entry point)."""
    from ..pipeline.runner import run_scenario

    return run_scenario(cell.spec).network


def _simulated_outcome(cell, assessment, stage_result, *, sla_utilization):
    """Fold one engine run into a :class:`CellResult` (ground truth)."""
    report = stage_result.report
    worst_link = None
    worst_ratio = 0.0
    worst_required = 0.0
    worst_capacity = 0.0
    breaching = []
    for entry in report.links:
        if entry.n_demands == 0:
            continue
        ratio = entry.required_capacity_bps / (
            float(sla_utilization) * entry.capacity_bps
        )
        if ratio > 1.0:
            breaching.append(entry.link)
        if ratio > worst_ratio or worst_link is None:
            worst_link = entry.link
            worst_ratio = ratio
            worst_required = entry.required_capacity_bps
            worst_capacity = entry.capacity_bps
    return CellResult(
        index=cell.index,
        factor=cell.factor,
        routing=cell.routing,
        failure=cell.failure,
        failure_label=cell.failure_label,
        seed=cell.seed,
        method="simulated",
        analytic_verdict=assessment.verdict,
        verdict=VERDICT_BREACH if breaching else VERDICT_OK,
        worst_link=worst_link,
        worst_ratio=float(worst_ratio),
        required_capacity_bps=float(worst_required),
        capacity_bps=float(worst_capacity),
        breaching_links=tuple(breaching),
        n_disconnected_demands=assessment.n_disconnected_demands,
    )


def _analytic_outcome(cell, assessment):
    """A pre-filtered cell's :class:`CellResult` (closed form only)."""
    worst = assessment.worst
    return CellResult(
        index=cell.index,
        factor=cell.factor,
        routing=cell.routing,
        failure=cell.failure,
        failure_label=cell.failure_label,
        seed=cell.seed,
        method="analytic",
        analytic_verdict=assessment.verdict,
        verdict=assessment.verdict,
        worst_link=worst.link if worst is not None else None,
        worst_ratio=float(assessment.worst_ratio),
        required_capacity_bps=(
            float(worst.required_capacity_bps) if worst is not None else 0.0
        ),
        capacity_bps=(
            float(worst.capacity_bps) if worst is not None else 0.0
        ),
        breaching_links=tuple(
            a.link for a in assessment.links if a.sla_ratio > 1.0
        ),
        n_disconnected_demands=assessment.n_disconnected_demands,
    )


def run_sweep(spec, *, checkpoint_dir=None, resume=False) -> SweepResult:
    """Run one capacity-planning sweep end to end (the canonical API).

    ``checkpoint_dir`` persists each simulated cell's outcome durably
    (atomic write + manifest) as soon as it completes; ``resume=True``
    then skips cells already checkpointed and re-runs only the
    remainder.  Cell seeds are fixed at expansion, so the resumed
    :class:`~repro.sweep.report.SweepReport` is bitwise-equal to an
    uninterrupted run's.
    """
    if spec.sweep is None:
        raise ParameterError(
            f"scenario {spec.name!r} has no 'sweep' section; use "
            "run_scenario for single scenarios"
        )
    if resume and checkpoint_dir is None:
        raise ParameterError(
            "resume=True needs a checkpoint_dir to resume from"
        )
    sweep = spec.sweep
    cells = expand_cells(spec)
    topology = spec.network.topology.build()
    demands = base_demands(spec)
    epsilon = float(spec.validation.epsilon)
    assessments = tuple(
        assess_cell(
            cell,
            demands,
            topology,
            sla_utilization=sweep.sla_utilization,
            margin=sweep.margin,
            epsilon=epsilon,
        )
        for cell in cells
    )

    if sweep.simulate == "all":
        to_simulate = list(cells)
    elif sweep.simulate == "none":
        to_simulate = []
    else:  # "marginal"
        to_simulate = [
            cell
            for cell, assessment in zip(cells, assessments)
            if assessment.verdict == VERDICT_MARGINAL
        ]

    store = None
    restored: dict[int, CellResult] = {}
    if checkpoint_dir is not None:
        store = CheckpointStore(
            checkpoint_dir,
            run_fingerprint(spec.to_dict()),
            resume=resume,
        )
        if resume:
            for key in store.keys():
                outcome = store.load(key)
                restored[int(outcome.index)] = outcome
            to_simulate = [
                cell for cell in to_simulate if cell.index not in restored
            ]

    assessment_of = {
        cell.index: assessment
        for cell, assessment in zip(cells, assessments)
    }
    simulations: dict[int, object] = {}
    outcome_of: dict[int, CellResult] = dict(restored)
    # cell specs are pinned to one worker each (see expand_cells), so the
    # sweep's pool is the only fan-out and pools never nest
    with make_pool(sweep.backend, sweep.workers, retry=sweep.retry) as pool:
        for cell, result in map_in_batches(
            pool, _simulate_cell, to_simulate, store
        ):
            simulations[cell.index] = result
            outcome = _simulated_outcome(
                cell,
                assessment_of[cell.index],
                result,
                sla_utilization=sweep.sla_utilization,
            )
            outcome_of[cell.index] = outcome
            if store is not None:
                store.save(f"cell-{cell.index:04d}", outcome)

    outcomes = []
    for cell, assessment in zip(cells, assessments):
        if cell.index in outcome_of:
            outcomes.append(outcome_of[cell.index])
        else:
            outcomes.append(_analytic_outcome(cell, assessment))

    report = SweepReport(
        name=spec.name,
        seed=int(spec.seed),
        sla_utilization=float(sweep.sla_utilization),
        margin=float(sweep.margin),
        epsilon=epsilon,
        demand_factors=sweep.demand_factors,
        failures=sweep.failures,
        routing=sweep.routing or (spec.network.routing,),
        cells=rank_cells(outcomes),
    )
    return SweepResult(
        spec=spec,
        cells=cells,
        assessments=assessments,
        simulations=simulations,
        report=report,
        health=run_health(),
        resumed=tuple(sorted(restored)),
    )
