"""The sweep's single ranked artifact: JSON report + operator table.

A :class:`SweepReport` answers the capacity-planning questions in one
object: which cells breach the SLA (ranked worst first), the worst link
under every failure case, and how much headroom each growth step leaves
— with every cell labelled by *how* it was decided (``analytic``
pre-filter or full ``simulated`` engine run) and by its cell spec's
seed, the scenario's (the demands' synthesis seeds are pinned in the
cell spec, which re-runs the cell on its own).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CellResult", "SweepReport", "rank_cells"]

#: Verdict ranking for the report ordering (worst first).
_SEVERITY = {"breach": 0, "marginal": 1, "ok": 2}


@dataclass(frozen=True)
class CellResult:
    """One cell's final outcome (analytic or simulated)."""

    index: int
    factor: float
    routing: str
    failure: tuple[tuple[str, str], ...]
    failure_label: str
    seed: int
    method: str  # "analytic" | "simulated"
    analytic_verdict: str
    verdict: str  # ok | marginal | breach
    worst_link: tuple[str, str] | None
    worst_ratio: float
    required_capacity_bps: float
    capacity_bps: float
    breaching_links: tuple[tuple[str, str], ...]
    n_disconnected_demands: int

    @property
    def headroom(self) -> float:
        """SLA headroom of the worst link (``1 - ratio``; < 0 breaches)."""
        return 1.0 - float(self.worst_ratio)

    def to_dict(self) -> dict:
        return {
            "index": int(self.index),
            "factor": float(self.factor),
            "routing": self.routing,
            "failure": [list(link) for link in self.failure],
            "failure_label": self.failure_label,
            "seed": int(self.seed),
            "method": self.method,
            "analytic_verdict": self.analytic_verdict,
            "verdict": self.verdict,
            "worst_link": (
                list(self.worst_link) if self.worst_link is not None else None
            ),
            "worst_ratio": float(self.worst_ratio),
            "required_capacity_bps": float(self.required_capacity_bps),
            "capacity_bps": float(self.capacity_bps),
            "headroom": float(self.headroom),
            "breaching_links": [list(link) for link in self.breaching_links],
            "n_disconnected_demands": int(self.n_disconnected_demands),
        }


@dataclass(frozen=True)
class SweepReport:
    """Ranked outcome of a capacity sweep (what ``repro sweep`` writes)."""

    name: str
    seed: int
    sla_utilization: float
    margin: float
    epsilon: float
    demand_factors: tuple[float, ...]
    failures: str
    routing: tuple[str, ...]
    cells: tuple[CellResult, ...]  # ranked: breaches first, worst first

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_simulated(self) -> int:
        return sum(1 for cell in self.cells if cell.method == "simulated")

    @property
    def n_prefiltered(self) -> int:
        """Cells the closed form settled without running the engine."""
        return self.n_cells - self.n_simulated

    @property
    def breaches(self) -> tuple[CellResult, ...]:
        return tuple(c for c in self.cells if c.verdict == "breach")

    def worst_per_failure(self) -> dict[str, CellResult]:
        """The worst cell of every failure case (by SLA ratio)."""
        worst: dict[str, CellResult] = {}
        for cell in self.cells:
            seen = worst.get(cell.failure_label)
            if seen is None or cell.worst_ratio > seen.worst_ratio:
                worst[cell.failure_label] = cell
        return worst

    def headroom_per_factor(self) -> dict[float, float]:
        """Minimum SLA headroom at each growth step (< 0: step breaches)."""
        headroom: dict[float, float] = {}
        for cell in self.cells:
            current = headroom.get(cell.factor)
            if current is None or cell.headroom < current:
                headroom[cell.factor] = cell.headroom
        return dict(sorted(headroom.items()))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": int(self.seed),
            "sla_utilization": float(self.sla_utilization),
            "margin": float(self.margin),
            "epsilon": float(self.epsilon),
            "demand_factors": [float(f) for f in self.demand_factors],
            "failures": self.failures,
            "routing": list(self.routing),
            "n_cells": self.n_cells,
            "n_simulated": self.n_simulated,
            "n_prefiltered": self.n_prefiltered,
            "headroom_per_factor": {
                f"{factor:g}": headroom
                for factor, headroom in self.headroom_per_factor().items()
            },
            "worst_per_failure": {
                label: cell.to_dict()
                for label, cell in self.worst_per_failure().items()
            },
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def table(self) -> str:
        """The ranked operator table (one line per cell, worst first)."""
        header = (
            f"{'cell':>5}  {'factor':>6}  {'failure':<28}  {'verdict':<8}  "
            f"{'method':<9}  {'worst link':<26}  {'ratio':>6}"
        )
        lines = [header, "-" * len(header)]
        for cell in self.cells:
            link = (
                f"{cell.worst_link[0]}->{cell.worst_link[1]}"
                if cell.worst_link is not None
                else "-"
            )
            lines.append(
                f"#{cell.index:04d}  x{cell.factor:<5g}  "
                f"{cell.failure_label:<28.28}  {cell.verdict:<8}  "
                f"{cell.method:<9}  {link:<26.26}  {cell.worst_ratio:6.2f}"
            )
        lines.append(
            f"{self.n_cells} cells: {self.n_prefiltered} settled "
            f"analytically, {self.n_simulated} simulated, "
            f"{len(self.breaches)} SLA breach(es)"
        )
        return "\n".join(lines)


def rank_cells(cells) -> tuple[CellResult, ...]:
    """Report order: severity first, then worst ratio, then cell index."""
    return tuple(
        sorted(
            cells,
            key=lambda c: (
                _SEVERITY.get(c.verdict, 3),
                -float(c.worst_ratio),
                int(c.index),
            ),
        )
    )
