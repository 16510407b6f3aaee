"""Cell expansion: fibre/failure enumeration, scaling, seeds, ordering."""

from __future__ import annotations

import dataclasses

import pytest

from repro.exceptions import ParameterError
from repro.network import abilene
from repro.pipeline import (
    DemandSpec,
    NetworkSpec,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
    default_registry,
)
from repro.sweep import (
    enumerate_failures,
    enumerate_fibres,
    expand_cells,
    realisation_seed,
    scale_demand,
)


@pytest.fixture(scope="module")
def preset_spec():
    return default_registry().get("abilene-single-failure-2x")


def _small_sweep(**sweep_kwargs) -> ScenarioSpec:
    """A 2-path toy sweep: cheap enough to expand in every test."""
    return ScenarioSpec(
        name="toy-sweep",
        seed=11,
        network=NetworkSpec(
            topology=TopologySpec(preset="parallel-paths", size=2),
            demands=(DemandSpec("src", "dst", preset="low"),),
            routing="ecmp",
            duration=10.0,
        ),
        sweep=SweepSpec(**sweep_kwargs),
    )


class TestEnumeration:
    def test_abilene_fibres(self):
        topology = abilene()
        fibres = enumerate_fibres(topology)
        # 28 directed links = 14 bidirectional fibres
        assert topology.n_links == 28
        assert len(fibres) == 14
        # representatives are real directed links, one per fate group
        groups = {frozenset(topology.fate_group(*f)) for f in fibres}
        assert len(groups) == 14

    def test_failure_modes(self):
        topology = abilene()
        assert enumerate_failures(topology, "none") == ()
        singles = enumerate_failures(topology, "single")
        assert len(singles) == 14
        assert all(len(case) == 1 for case in singles)
        dual = enumerate_failures(topology, "dual")
        # N-1 cases plus C(14, 2) unordered pairs
        assert len(dual) == 14 + 91
        assert all(len(case) in (1, 2) for case in dual)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ParameterError, match="failure mode"):
            enumerate_failures(abilene(), "triple")


class TestScaleDemand:
    def test_factor_one_is_identity(self):
        demand = DemandSpec("a", "b", preset="medium")
        assert scale_demand(demand, 1.0) is demand

    def test_preset_demand_scales_scale(self):
        demand = DemandSpec("a", "b", preset="medium", scale=0.5)
        scaled = scale_demand(demand, 2.0)
        assert scaled.scale == pytest.approx(1.0)
        assert scaled.preset == "medium"

    def test_custom_rate_demand_scales_rate_and_scale(self):
        demand = DemandSpec("a", "b", target_mean_rate_bps=8e6)
        scaled = scale_demand(demand, 1.5)
        assert scaled.target_mean_rate_bps == pytest.approx(12e6)
        assert scaled.scale == pytest.approx(demand.scale * 1.5)


class TestExpandCells:
    def test_preset_grid_is_the_full_product(self, preset_spec):
        cells = expand_cells(preset_spec)
        # (1 baseline + 14 single-fibre failures) x 3 growth factors
        assert len(cells) == 45
        labels = {(cell.failure_label, cell.factor) for cell in cells}
        assert len(labels) == 45
        assert sum(1 for cell in cells if not cell.failure) == 3
        # every fibre appears at every factor
        fibres = enumerate_fibres(preset_spec.network.topology.build())
        for fibre in fibres:
            for factor in (1.0, 1.5, 2.0):
                assert (f"{fibre[0]}~{fibre[1]}", factor) in labels

    def test_cell_order_and_indexing(self, preset_spec):
        cells = expand_cells(preset_spec)
        assert [cell.index for cell in cells] == list(range(45))
        # baseline first, factors innermost
        assert cells[0].failure == () and cells[0].factor == 1.0
        assert cells[1].failure == () and cells[1].factor == 1.5
        assert cells[2].failure == () and cells[2].factor == 2.0
        assert cells[3].failure != () and cells[3].factor == 1.0

    def test_cell_specs_are_runnable_network_scenarios(self, preset_spec):
        cell = expand_cells(preset_spec)[4]
        spec = cell.spec
        assert spec.sweep is None
        assert spec.family == "network"
        # the sweep service owns the fan-out: cells must not nest pools
        assert spec.network.workers == 1
        # the failure rides along as a full-capture outage event
        outage = spec.network.events[-1]
        assert outage.kind == "outage"
        assert outage.start == 0.0
        assert outage.duration == preset_spec.network.duration
        assert tuple(outage.link) == cell.failure[0]

    def test_demands_scaled_per_cell(self, preset_spec):
        cells = expand_cells(preset_spec)
        doubled = next(
            c for c in cells if c.factor == 2.0 and not c.failure
        )
        for base, scaled in zip(
            preset_spec.network.demands, doubled.spec.network.demands
        ):
            assert scaled.scale == pytest.approx(base.scale * 2.0)

    def test_cells_keep_the_scenario_seed(self, preset_spec):
        # one network seed, hence one ECMP salt, for every cell
        cells = expand_cells(preset_spec)
        assert {c.seed for c in cells} == {preset_spec.seed}
        assert {c.spec.seed for c in cells} == {preset_spec.seed}

    def test_demand_seeds_are_common_random_numbers(self):
        spec = _small_sweep(
            demand_factors=(1.0, 1.5, 2.0),
            failures="single",
            routing=("ecmp", "shortest_path"),
        )
        spec = dataclasses.replace(
            spec,
            network=dataclasses.replace(
                spec.network,
                demands=(
                    DemandSpec("src", "dst", preset="low"),
                    DemandSpec("dst", "src", preset="low"),
                ),
            ),
        )
        cells = expand_cells(spec)
        seeds: dict = {}  # (demand index, factor) -> its pinned seeds
        for cell in cells:
            for index, demand in enumerate(cell.spec.network.demands):
                assert demand.seed is not None
                seeds.setdefault((index, cell.factor), set()).add(demand.seed)
        # the same pair gets one seed under every failure and routing
        assert all(len(pinned) == 1 for pinned in seeds.values())
        # distinct pairs get distinct seeds
        distinct = {next(iter(pinned)) for pinned in seeds.values()}
        assert len(distinct) == len(seeds) == 6
        expected = {
            (index, factor): {realisation_seed(spec.seed, index, factor)}
            for index, factor in seeds
        }
        assert seeds == expected

    def test_seed_override_moves_every_realisation(self, preset_spec):
        reseeded = preset_spec.with_overrides(seed=99)

        def pinned(spec):
            return {
                (index, cell.factor): demand.seed
                for cell in expand_cells(spec)
                for index, demand in enumerate(cell.spec.network.demands)
            }

        a, b = pinned(preset_spec), pinned(reseeded)
        assert a.keys() == b.keys()
        assert all(a[pair] != b[pair] for pair in a)

    def test_pinned_demand_seed_roots_its_realisations(self):
        spec = _small_sweep(demand_factors=(1.0, 2.0), failures="none")
        spec = dataclasses.replace(
            spec,
            network=dataclasses.replace(
                spec.network,
                demands=(DemandSpec("src", "dst", preset="low", seed=5),),
            ),
        )
        got = [c.spec.network.demands[0].seed for c in expand_cells(spec)]
        assert got == [
            realisation_seed(5, 0, 1.0), realisation_seed(5, 0, 2.0),
        ]
        assert len(set(got)) == 2

    def test_routing_axis_multiplies_the_grid(self):
        spec = _small_sweep(
            demand_factors=(1.0, 2.0),
            failures="none",
            routing=("ecmp", "shortest_path"),
        )
        cells = expand_cells(spec)
        assert len(cells) == 4
        assert {c.routing for c in cells} == {"ecmp", "shortest_path"}
        assert {c.spec.network.routing for c in cells} == {
            "ecmp", "shortest_path",
        }

    def test_sweep_chunk_pins_cell_chunk(self):
        spec = _small_sweep(demand_factors=(1.0,), failures="none")
        spec = dataclasses.replace(
            spec, sweep=spec.sweep.with_execution(chunk=5_000, workers=2)
        )
        (cell,) = expand_cells(spec)
        assert cell.spec.network.chunk == 5_000
        assert cell.spec.network.workers == 1

    def test_expand_requires_both_sections(self):
        plain = default_registry().get("medium")
        with pytest.raises(ParameterError, match="sweep"):
            expand_cells(plain)


class TestSweepSpecValidation:
    def test_sweep_needs_a_network_section(self):
        with pytest.raises(ParameterError, match="network"):
            ScenarioSpec(name="orphan", sweep=SweepSpec())

    def test_bad_axes_rejected(self):
        with pytest.raises(ParameterError):
            SweepSpec(demand_factors=())
        with pytest.raises(ParameterError):
            SweepSpec(demand_factors=(0.0,))
        with pytest.raises(ParameterError):
            SweepSpec(failures="quadruple")
        with pytest.raises(ParameterError):
            SweepSpec(margin=1.0)
        with pytest.raises(ParameterError):
            SweepSpec(simulate="sometimes")

    def test_family_is_sweep(self, preset_spec):
        assert preset_spec.family == "sweep"
