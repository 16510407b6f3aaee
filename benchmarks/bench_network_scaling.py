"""Network scaling — pooled backbone simulation vs sequential runs.

The network-side sibling of ``bench_engine_scaling.py`` (generation),
``bench_measurement_scaling.py`` (measurement) and
``bench_synthesis_scaling.py`` (synthesis): one ECMP-routed demand matrix
over the Abilene backbone is simulated twice by the
:class:`repro.network.NetworkEngine` — once sequentially (``workers=1``)
and once with the engine's tasks fanned out over the worker pool — and
two claims are checked:

* **Speedup**: the engine synthesises each demand once and advances all
  demands one window of arrival cells at a time; within a window the
  demand × cell synthesis tasks are independent given the per-demand
  ``SeedSequence`` children.  Each class holds its routed window blocks
  until they fill a ``chunk``-packet measurement step (or the horizon
  ends), and the classes' steps of one round are independent too, as
  are the per-link fits.  With >= 4 CPUs the pooled run must beat the sequential one by
  ``MIN_SPEEDUP`` (the acceptance bar is 3x on a >= 10-link topology
  with the shared-memory process backend; quick mode only smoke-checks
  no regression).  ``REPRO_BENCH_WORKERS`` and ``REPRO_BENCH_BACKEND``
  pin the raced configuration; the emitted JSON records both plus a
  ``stages_s`` routing-vs-links wall-time breakdown.
* **Equivalence**: the per-link packet counts, byte totals and rate
  series are bitwise identical between the two runs — ``workers`` (and
  ``chunk``) are pure execution strategy.

The run emits the network perf datapoint as ``BENCH_network.json`` (CI
uploads it as an artifact); set ``REPRO_BENCH_NETWORK_JSON`` to redirect
it.
A quick run (``REPRO_BENCH_QUICK=1``) writes ``BENCH_network_quick.json``.

Run directly (``python benchmarks/bench_network_scaling.py``) or via
pytest (``pytest benchmarks/bench_network_scaling.py -s``).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import bench_json_path, print_header, run_once

from repro.execution import (
    reset_run_health,
    reset_stage_timings,
    run_health,
    stage_timings,
)
from repro.netsim import table_i_workload
from repro.network import DemandMatrix, NetworkDemand, NetworkEngine, abilene

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: Capture length per demand (seconds).  Quick mode shrinks it for CI.
DURATION = 15.0 if QUICK else 60.0
SEED = 7
CHUNK = 200_000

#: The demand matrix: six coast-to-coast Table I populations whose ECMP
#: routes spread over well beyond the acceptance bar of 10 links.
DEMAND_ODS = (
    (("seattle", "newyork"), 4),
    (("sunnyvale", "washington"), 6),
    (("losangeles", "atlanta"), 3),
    (("denver", "newyork"), 6),
    (("houston", "chicago"), 3),
    (("newyork", "losangeles"), 4),
)

#: Links the matrix must light up for the speedup claim to be meaningful.
MIN_SIMULATED_LINKS = 10

_CPUS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")  # Linux; fall back elsewhere
    else (os.cpu_count() or 1)
)
WORKERS = min(int(os.environ.get("REPRO_BENCH_WORKERS", "4")), _CPUS)
BACKEND = os.environ.get("REPRO_BENCH_BACKEND") or (
    "process" if WORKERS > 1 else "thread"
)

#: On a single-CPU box both runs use workers=1 — "speedup" would compare
#: one sequential run against itself plus pool overhead, so the gate is
#: skipped outright (the datapoint still records both timings).
GATED = _CPUS >= 2 and WORKERS > 1

#: Required parallel-over-sequential speedup.  The tasks of one round
#: (demand × cell synthesis, per-class measurement steps) are independent
#: and, on the process backend, dodge the GIL entirely, so with >= 4
#: CPUs the acceptance bar of 3x applies to the full run; quick mode's
#: tasks are milliseconds, so its gate (like the other scaling benches)
#: is a no-pathology smoke check, not a perf claim.
if _CPUS >= 4 and not QUICK:
    MIN_SPEEDUP = 3.0
else:
    MIN_SPEEDUP = 0.7


def _demand_matrix() -> DemandMatrix:
    return DemandMatrix(
        NetworkDemand(a, b, table_i_workload(row, duration=DURATION))
        for (a, b), row in DEMAND_ODS
    )


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def test_network_scaling(benchmark):
    topology = abilene()

    def build():
        sequential, t_sequential = _timed(
            lambda: NetworkEngine(chunk=CHUNK, workers=1).simulate(
                topology, _demand_matrix(), routing="ecmp", seed=SEED
            )
        )
        reset_stage_timings()
        reset_run_health()
        sharded, t_sharded = _timed(
            lambda: NetworkEngine(
                chunk=CHUNK, workers=WORKERS, backend=BACKEND
            ).simulate(
                topology, _demand_matrix(), routing="ecmp", seed=SEED
            )
        )
        # keep only the engine's own stages: under the thread backend the
        # synthesis/measurement timers of its pool tasks also land in
        # this process's registry, summed across concurrent workers
        stages = {
            name: secs for name, secs in stage_timings().items()
            if name.startswith("network.")
        }
        return (
            sequential, t_sequential, sharded, t_sharded, stages,
            run_health(),
        )

    sequential, t_sequential, sharded, t_sharded, stages, health = run_once(
        benchmark, build
    )
    speedup = t_sequential / t_sharded
    carrying = sequential.simulated_links
    total_packets = sum(link.packet_count for link in carrying)

    print_header(
        f"NETWORK SCALING - Abilene ({topology.n_links} directed links), "
        f"{len(DEMAND_ODS)} ECMP demands over {DURATION:g} s, {_CPUS} cpu(s)"
        + ("  [quick mode; unset REPRO_BENCH_QUICK for the full run]"
           if QUICK else "")
    )
    print(f"  {'configuration':>34s} {'time (s)':>10s} {'links/s':>10s}")
    for label, t in (
        ("sequential (workers=1)", t_sequential),
        (f"cell+link pool (workers={WORKERS}, {BACKEND})", t_sharded),
    ):
        print(f"  {label:>34s} {t:10.2f} {len(carrying) / t:10.2f}")
    for name in sorted(stages, key=stages.get, reverse=True):
        print(f"  {'stage ' + name:>34s} {stages[name]:10.2f} "
              f"{100.0 * stages[name] / t_sharded:9.0f}%")
    print(f"  simulated links: {len(carrying)} carrying "
          f"{total_packets:,} packets")
    if GATED:
        print(f"  speedup: {speedup:.2f}x (floor {MIN_SPEEDUP:g}x "
              f"at {_CPUS} cpu(s))")
    else:
        print(f"  speedup: {speedup:.2f}x (gate skipped: {_CPUS} cpu(s), "
              f"both runs used workers={WORKERS})")

    # record the datapoint before any gate can fail — a regression run is
    # exactly the one whose numbers must survive
    out_path = bench_json_path("network")
    out_path.write_text(json.dumps({
        "benchmark": "network_scaling",
        "quick": QUICK,
        "topology": "abilene",
        "n_directed_links": int(topology.n_links),
        "n_simulated_links": int(len(carrying)),
        "n_demands": len(DEMAND_ODS),
        "routing": "ecmp",
        "duration_s": float(DURATION),
        "total_packets": int(total_packets),
        "chunk_packets": int(CHUNK),
        "workers": int(WORKERS),
        "backend": BACKEND,
        "cpus": int(_CPUS),
        "sequential_s": float(t_sequential),
        "sharded_s": float(t_sharded),
        "stages_s": {name: float(secs) for name, secs in sorted(stages.items())},
        "speedup": float(speedup),
        # gated=False marks a datapoint where no parallelism was possible
        # (e.g. one CPU): speedup there is noise, not a perf claim
        "gated": bool(GATED),
        "min_speedup": float(MIN_SPEEDUP) if GATED else None,
        # a perf datapoint that survived on retries or degraded
        # transport is not comparable: the events travel with it
        "retries": health.to_dict()["retries"],
        "degradations": health.to_dict()["degradations"],
    }, indent=2) + "\n")
    print(f"  wrote datapoint -> {out_path}")

    # the happy path must be genuinely happy: a datapoint built on
    # silent respawns or pickle fallbacks is measuring the wrong thing
    assert health.clean, f"resilience events during bench: {health.to_dict()}"

    # the speedup claim is only meaningful on a genuinely multi-link run
    assert len(carrying) >= MIN_SIMULATED_LINKS

    # equivalence: workers are pure execution strategy — every link's
    # outputs are bitwise identical between the two runs
    for link, entry in sequential.links.items():
        other = sharded.links[link]
        assert entry.packet_count == other.packet_count
        assert entry.total_bytes == other.total_bytes
        if entry.series is not None:
            assert np.array_equal(entry.series.values, other.series.values)
            assert np.array_equal(entry.flows.starts, other.flows.starts)

    if GATED:
        assert speedup >= MIN_SPEEDUP, (
            f"link sharding speedup {speedup:.2f}x below the "
            f"{MIN_SPEEDUP:g}x floor"
        )


if __name__ == "__main__":  # pragma: no cover - direct invocation
    pytest.main([__file__, "-s", "--benchmark-disable"])
