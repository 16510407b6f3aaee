"""Sweep axes → concrete cells: factors x failures x routing policies.

A *cell* is one fully-specified what-if scenario: every demand scaled by
one growth factor, one (possibly empty) set of failed fibres encoded as
full-capture :class:`~repro.network.events.LinkOutage` events, and one
routing policy.  Each cell carries a complete network-family
:class:`~repro.pipeline.spec.ScenarioSpec`, so running it through
:func:`~repro.pipeline.run_scenario` gives, bit for bit, what the sweep
computes for it.

Failure enumeration works on physical fibres, not directed links: the
topology's shared-fate groups (both directions of a bidirectional link)
are deduplicated, and failing a fibre fails the whole group — the
operator's "a backhoe cut the conduit" question.

Seeds are common random numbers.  Every cell spec keeps the sweep
scenario's seed, so all cells hash flows onto ECMP paths with one salt,
and every demand pins its synthesis seed to
:func:`realisation_seed` of (scenario seed, demand index, growth
factor).  Cells that differ only in failed fibres or routing policy
therefore carry the same flows, and their difference reflects the
failure, not resampling noise; distinct (demand, factor) pairs draw
independent streams.  Any cell can still be re-run in isolation from its
spec alone.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ..exceptions import ParameterError
from ..pipeline.spec import (
    DemandSpec,
    NetworkEventSpec,
    ScenarioSpec,
)
from ..network.topology import Topology

__all__ = [
    "SweepCell",
    "enumerate_fibres",
    "enumerate_failures",
    "expand_cells",
    "realisation_seed",
    "scale_demand",
]


def enumerate_fibres(topology: Topology) -> tuple[tuple[str, str], ...]:
    """The topology's physical fibres, one directed representative each.

    Directed links sharing a fate group collapse to the first of the
    group in ``topology.links`` order, so the result is deterministic
    and failing a representative (via
    :meth:`~repro.network.topology.Topology.without_links` or a
    :class:`~repro.network.events.LinkOutage`) takes the whole fibre
    down.
    """
    fibres: list[tuple[str, str]] = []
    seen: set[frozenset] = set()
    for link in topology.links:
        group = frozenset(topology.fate_group(*link))
        if group in seen:
            continue
        seen.add(group)
        fibres.append(link)
    return tuple(fibres)


def enumerate_failures(
    topology: Topology, mode: str
) -> tuple[tuple[tuple[str, str], ...], ...]:
    """The failure cases of a sweep: ``()`` entries are whole fibre sets.

    ``"none"`` enumerates nothing (baseline only), ``"single"`` every
    individual fibre, ``"dual"`` every fibre plus every unordered pair —
    the N-1 and N-2 contingency sets of capacity planning.
    """
    if mode == "none":
        return ()
    fibres = enumerate_fibres(topology)
    singles = tuple((fibre,) for fibre in fibres)
    if mode == "single":
        return singles
    if mode == "dual":
        return singles + tuple(combinations(fibres, 2))
    raise ParameterError(
        f"unknown failure mode {mode!r}; expected none, single or dual"
    )


def scale_demand(demand: DemandSpec, factor: float) -> DemandSpec:
    """``demand`` under ``factor`` x growth, utilisation held constant.

    Preset demands scale via ``scale`` (Table I rates and the backing
    link capacity move together); custom-rate demands scale both the
    target rate and the capacity-defining ``scale``.  Either way the
    flow arrival rate — and only it — scales by ``factor``, matching the
    analytic :meth:`~repro.network.analytic.AnalyticDemand.scaled` axis.
    """
    factor = float(factor)
    if factor == 1.0:
        return demand
    if demand.preset is not None:
        return dataclasses.replace(demand, scale=demand.scale * factor)
    return dataclasses.replace(
        demand,
        target_mean_rate_bps=demand.target_mean_rate_bps * factor,
        scale=demand.scale * factor,
    )


def realisation_seed(seed: int, index: int, factor: float) -> int:
    """The pinned synthesis seed of demand ``index`` under ``factor``.

    Drawn from ``SeedSequence([seed, index, bits])``, ``bits`` being the
    factor's IEEE-754 pattern, so it depends on the (demand, factor)
    pair alone: every failure and routing policy of a sweep shares it.
    """
    bits = int(np.float64(factor).view(np.uint64))
    return int(
        np.random.SeedSequence([int(seed), int(index), bits])
        .generate_state(1)[0]
    )


@dataclass(frozen=True)
class SweepCell:
    """One expanded sweep cell: axes coordinates plus its runnable spec."""

    index: int
    factor: float
    failure: tuple[tuple[str, str], ...]  # failed fibres, () = baseline
    routing: str
    seed: int  # the cell spec's seed: the sweep's, hence the ECMP salt
    spec: ScenarioSpec  # network-family spec (sweep=None)

    @property
    def failure_label(self) -> str:
        if not self.failure:
            return "baseline"
        return "+".join(f"{a}~{b}" for a, b in self.failure)

    @property
    def label(self) -> str:
        return f"x{self.factor:g} {self.routing} {self.failure_label}"


def expand_cells(spec: ScenarioSpec) -> tuple[SweepCell, ...]:
    """The sweep's cartesian product as runnable per-cell scenario specs.

    Cell order is deterministic: routing policy (outermost), then
    baseline followed by the failure cases, then growth factors.  Each
    cell spec is the base scenario with the ``sweep`` section stripped,
    the scenario seed kept, demands scaled and each pinned to its
    :func:`realisation_seed` (a demand that pins its own seed roots the
    draw in that seed instead of the scenario's), the failure encoded as
    full-capture outage events appended to the base events, and the
    network section pinned to one worker (the sweep drives the engine's
    pool from its own ``execution`` section).
    """
    if spec.sweep is None or spec.network is None:
        raise ParameterError(
            f"scenario {spec.name!r} cannot expand sweep cells without "
            "both a 'sweep' and a 'network' section"
        )
    sweep = spec.sweep
    network = spec.network
    topology = network.topology.build()
    routings = sweep.routing or (network.routing,)
    failures: list[tuple[tuple[str, str], ...]] = []
    if sweep.include_baseline:
        failures.append(())
    failures.extend(enumerate_failures(topology, sweep.failures))

    grid = [
        (routing, failure, factor)
        for routing in routings
        for failure in failures
        for factor in sweep.demand_factors
    ]
    seed = int(spec.seed)
    demands = {
        factor: tuple(
            dataclasses.replace(
                scale_demand(demand, factor),
                seed=realisation_seed(
                    seed if demand.seed is None else demand.seed,
                    index,
                    factor,
                ),
            )
            for index, demand in enumerate(network.demands)
        )
        for factor in sweep.demand_factors
    }
    cells = []
    for index, (routing, failure, factor) in enumerate(grid):
        outages = tuple(
            NetworkEventSpec(
                kind="outage",
                start=0.0,
                duration=float(network.duration),
                link=fibre,
            )
            for fibre in failure
        )
        cell_network = network.with_execution(
            chunk=(
                sweep.execution.chunk
                if sweep.execution.chunk is not None
                else network.chunk
            ),
            workers=1,
        )
        cell_network = dataclasses.replace(
            cell_network,
            demands=demands[factor],
            routing=routing,
            events=network.events + outages,
        )
        label = (
            f"x{factor:g} {routing} "
            + ("baseline" if not failure else
               "+".join(f"{a}~{b}" for a, b in failure))
        )
        cells.append(
            SweepCell(
                index=index,
                factor=float(factor),
                failure=failure,
                routing=routing,
                seed=seed,
                spec=dataclasses.replace(
                    spec,
                    name=f"{spec.name}#{index:03d}",
                    description=label,
                    sweep=None,
                    network=cell_network,
                ),
            )
        )
    return tuple(cells)
