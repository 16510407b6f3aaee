"""Golden bits: network and sweep outputs pinned across commits.

Every other network test compares one run with another run of the same
code (``TestNetworkInvariance``, the resume tests), so a change that
moves every run alike would pass them all.  This module compares each
registry network scenario with hashes recorded in ``golden_bits.json``:
per link, the FlowSet columns and keys, the rate series, the raw rate
series and the packet, byte and discard counts, plus a digest of the
scenario's report.

``abilene-single-failure-2x`` runs reduced to one growth factor over a
10 s horizon (the size of the sweep benchmark's small run), so the whole
module stays cheap.

Each scenario runs twice: with its own execution section, and with a
small measurement ``chunk`` on two threads.  The engine measures each
class in ``chunk``-packet steps, holding routed windows until a step is
full, so the second run measures mid-horizon and in many steps; both
must give the recorded bits.

Re-record only for an intended change of network output::

    PYTHONPATH=src python tests/network/test_golden_bits.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.measurement import StreamingMeasurement
from repro.network import engine as network_engine
from repro.pipeline import default_registry, run_scenario

GOLDEN = Path(__file__).with_name("golden_bits.json")

SCENARIOS = (
    "abilene-table-i",
    "ecmp-flash-flood",
    "outage-reroute",
    "abilene-single-failure-2x",
)


#: A measurement step far below one class's packets per window.
SMALL_CHUNK = 1500


def scenario_spec(name: str, **execution):
    """The golden run of ``name``; ``execution`` knobs replace its own."""
    spec = default_registry().get(name)
    if spec.sweep is not None:
        spec = replace(
            spec,
            network=replace(spec.network, duration=10.0),
            sweep=replace(spec.sweep, demand_factors=(1.5,)),
        )
        if execution:
            spec = replace(spec, sweep=spec.sweep.with_execution(**execution))
    elif execution:
        spec = replace(spec, network=spec.network.with_execution(**execution))
    return spec


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            part = np.ascontiguousarray(part).tobytes()
        elif not isinstance(part, bytes):
            part = json.dumps(part, sort_keys=True).encode()
        h.update(part)
    return h.hexdigest()


def link_bits(link) -> dict:
    """Hashes and counts of everything one link measured."""
    flows = link.flows
    return {
        "flows": _sha(
            flows.starts, flows.ends, flows.sizes, flows.packet_counts
        ),
        "keys": _sha(flows.keys),
        "series": _sha(link.series.values),
        "raw_series": (
            None if link.raw_series is None else _sha(link.raw_series.values)
        ),
        "packet_count": int(link.packet_count),
        "total_bytes": float(link.total_bytes),
        "discarded_packets": int(flows.discarded_packets),
    }


def simulation_bits(simulation, prefix: str = "") -> dict:
    return {
        f"{prefix}{a}->{b}": link_bits(link)
        for (a, b), link in simulation.links.items()
        if link.flows is not None
    }


def scenario_bits(name: str, **execution) -> dict:
    result = run_scenario(scenario_spec(name, **execution))
    if result.sweep is not None:
        sweep = result.sweep.result
        links = {}
        for index, cell in sorted(sweep.simulations.items()):
            links.update(simulation_bits(cell.simulation, f"cell{index}:"))
        return {"report": _sha(sweep.report.to_dict()), "links": links}
    simulation = result.network.simulation
    return {
        "report": _sha(simulation.report().to_dict()),
        "links": simulation_bits(simulation),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def assert_golden(bits, expected):
    assert sorted(bits["links"]) == sorted(expected["links"])
    for link, entry in expected["links"].items():
        assert bits["links"][link] == entry, link
    assert bits["report"] == expected["report"]


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_matches_golden_bits(name, golden):
    assert_golden(scenario_bits(name), golden[name])


@pytest.mark.parametrize("name", SCENARIOS)
def test_small_chunk_on_two_threads_matches_golden_bits(
    name, golden, monkeypatch
):
    events = []  # ("cell", 0) per synthesised cell, ("step", packets)
    shard_tasks = StreamingMeasurement.shard_tasks
    synthesize = network_engine.synthesize_cell_task

    def step(self, packets):
        events.append(("step", packets.size))
        return shard_tasks(self, packets)

    def cell(task):
        events.append(("cell", 0))
        return synthesize(task)

    monkeypatch.setattr(StreamingMeasurement, "shard_tasks", step)
    monkeypatch.setattr(network_engine, "synthesize_cell_task", cell)
    bits = scenario_bits(
        name, chunk=SMALL_CHUNK, workers=2, backend="thread"
    )
    assert_golden(bits, golden[name])
    sizes = [size for kind, size in events if kind == "step"]
    assert max(sizes) == SMALL_CHUNK
    if scenario_spec(name).sweep is None:
        # some class filled a step and measured it before the last
        # cells were synthesised (a 10 s sweep cell has one window)
        last_cell = max(i for i, (kind, _) in enumerate(events) if kind == "cell")
        assert events.index(("step", SMALL_CHUNK)) < last_cell


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {name: scenario_bits(name) for name in SCENARIOS},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
