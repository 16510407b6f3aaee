"""Synthesis scaling — throughput and memory of the synthesis engine.

The synthesis-side twin of ``bench_engine_scaling.py`` (generation, PR 1)
and ``bench_measurement_scaling.py`` (measurement, PR 3): one full-rate
(``scale=1.0``) Table I OC-12 workload is synthesized by the frozen
legacy whole-trace path (``reference_synthesize_link_trace``: one RNG
stream, whole-capture materialisation, global argsort) and by the
streaming cell-sharded engine, and three claims are checked:

* **Speedup**: the engine beats the whole-trace reference end to end.
  The single-core floor (see ``MIN_SPEEDUP``) is purely algorithmic —
  cache-resident per-cell flow tables instead of DRAM-latency-bound
  gathers over million-flow arrays, a closed-form TCP round table
  instead of the round-synchronous loop, round-level capture-window
  pruning, introsort per cell + a run-merging stable sort, and packed
  two-word payload columns instead of 23-byte structured-record
  shuffles.  With >= 4 CPUs the floor rises to the 5x acceptance bar,
  since cells additionally fan out over the worker pool ("multi-worker
  streaming"); the emitted JSON records ``cpus`` and ``workers`` so the
  trajectory stays interpretable across hosts.
* **Memory**: streaming the same workload (synthesize → consume chunks)
  keeps the tracemalloc peak bounded by the active-flow carry plus one
  merge window — >= 3x below the whole-trace reference's peak.
* **Equivalence**: the engine's streamed chunks concatenate to exactly
  its materialised trace (bitwise, any chunk/workers), and reference vs
  engine agree distributionally (same laws, different draws).

The run emits the synthesis perf datapoint as ``BENCH_synthesis.json``
(CI uploads it as an artifact); set ``REPRO_BENCH_SYNTHESIS_JSON`` to
redirect it.
A quick run (``REPRO_BENCH_QUICK=1``) writes ``BENCH_synthesis_quick.json``.
The datapoint records the selected execution backend
(``REPRO_BENCH_BACKEND``; defaults to ``process`` when the fan-out can
actually parallelise) and a per-stage wall-time breakdown
(``stages_s``: cell fan-out vs run merging) so regressions localise to
a stage instead of hiding in the end-to-end number.

Run directly (``python benchmarks/bench_synthesis_scaling.py``) or via
pytest (``pytest benchmarks/bench_synthesis_scaling.py -s``).
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc

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
from repro.synthesis import SynthesisEngine, reference_synthesize_link_trace

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: Full-rate OC-12 interval length (seconds).  The paper's 262 Mbps link
#: emits ~23.5k packets/s, so 240 s is a ~5.6M-packet capture (>= 5M, the
#: acceptance operating point); quick mode shrinks it for CI smoke.
TABLE_I_ROW = 2
DURATION = 40.0 if QUICK else 240.0
SEED = 7

#: Streamed configuration raced against the reference.
#: ``REPRO_BENCH_WORKERS`` caps the fan-out (CI legs pin it) and
#: ``REPRO_BENCH_BACKEND`` picks the pool flavour; by default the bench
#: races the process backend whenever it can actually parallelise.
CHUNK = 200_000 if QUICK else 1_000_000
_CPUS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")  # Linux; fall back elsewhere
    else (os.cpu_count() or 1)
)
WORKERS = min(int(os.environ.get("REPRO_BENCH_WORKERS", "8")), _CPUS)
BACKEND = os.environ.get("REPRO_BENCH_BACKEND") or (
    "process" if WORKERS > 1 else "thread"
)

#: Required end-to-end speedup.  On a single CPU only the algorithmic
#: wins of the NumPy kernels apply; with >= 4 CPUs cell synthesis also
#: fans out over the worker pool (5x), and with >= 8 CPUs the full 8-worker
#: shared-memory acceptance bar of 6x applies.  Quick mode runs a
#: capture *below* the whole-trace path's memory cliff (its flow tables
#: still fit in cache), where the engine's advantage is structurally
#: small — the quick gate is a no-regression smoke check, the full-size
#: run is the perf claim.
if QUICK:
    MIN_SPEEDUP = 1.3 if _CPUS >= 4 else 1.0
elif _CPUS >= 8:
    MIN_SPEEDUP = 6.0
elif _CPUS >= 4:
    MIN_SPEEDUP = 5.0
else:
    MIN_SPEEDUP = 1.8

#: Required whole-trace/streamed peak-memory ratio.  Quick mode's short
#: capture spans only a handful of arrival cells, so the carry window is
#: a large fraction of the trace and the bound is structurally loose.
MIN_MEMORY_RATIO = 1.5 if QUICK else 3.0


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _peak_memory(fn) -> float:
    tracemalloc.start()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def _drain(stream) -> int:
    count = 0
    for block in stream:
        count += block.size
    return count


def test_synthesis_scaling(benchmark):
    workload = table_i_workload(TABLE_I_ROW, scale=1.0, duration=DURATION)
    kwargs = workload._synthesis_kwargs()

    def build():
        # reference first, as in bench_measurement_scaling: each path runs
        # the way it runs in production — the whole-trace synthesizer on
        # first-touch pages (its allocations are the capture itself), the
        # streamer on its own recycled small blocks
        reference, t_reference = _timed(
            lambda: reference_synthesize_link_trace(seed=SEED, **kwargs)
        )
        ref_packets = len(reference.trace)
        ref_rate = reference.trace.mean_rate_bps
        del reference
        stream = workload.synthesize_chunks(
            seed=SEED, chunk=CHUNK, workers=WORKERS, backend=BACKEND
        )
        reset_stage_timings()
        reset_run_health()
        engine_packets, t_engine = _timed(lambda: _drain(stream))
        stages = stage_timings()
        health = run_health()
        engine_bytes = stream.total_bytes
        peak_whole = _peak_memory(
            lambda: reference_synthesize_link_trace(seed=SEED, **kwargs)
        )
        peak_stream = _peak_memory(
            lambda: _drain(
                workload.synthesize_chunks(
                    seed=SEED, chunk=CHUNK, workers=WORKERS, backend=BACKEND
                )
            )
        )
        return (
            (engine_packets, engine_bytes, t_engine, stages, health),
            (ref_packets, ref_rate, t_reference),
            (peak_whole, peak_stream),
        )

    engine_res, ref_res, peaks = run_once(benchmark, build)
    engine_packets, engine_bytes, t_engine, stages, health = engine_res
    ref_packets, ref_rate, t_reference = ref_res
    peak_whole, peak_stream = peaks
    speedup = t_reference / t_engine
    memory_ratio = peak_whole / peak_stream

    print_header(
        f"SYNTHESIS SCALING - Table I row {TABLE_I_ROW} at scale 1.0, "
        f"{DURATION:g} s (~{engine_packets:,} packets), {_CPUS} cpu(s)"
        + ("  [quick mode; unset REPRO_BENCH_QUICK for >= 5M packets]"
           if QUICK else "")
    )
    print(f"  {'path':>44s} {'time (s)':>10s} {'packets/s':>12s}")
    rows = (
        ("reference (whole-trace, single stream)", t_reference, ref_packets),
        (f"engine chunk={CHUNK} workers={WORKERS} backend={BACKEND}",
         t_engine, engine_packets),
    )
    for label, t, n in rows:
        print(f"  {label:>44s} {t:10.2f} {n / t:12.0f}")
    for name in sorted(stages, key=stages.get, reverse=True):
        print(f"  {'stage ' + name:>44s} {stages[name]:10.2f} "
              f"{100.0 * stages[name] / t_engine:11.0f}%")
    print(f"  end-to-end speedup: {speedup:.1f}x (floor {MIN_SPEEDUP:g}x "
          f"at {_CPUS} cpu(s))")
    print(
        f"  peak synthesis memory: whole-trace {peak_whole / 1e6:.0f} MB"
        f" -> streamed {peak_stream / 1e6:.0f} MB"
        f" ({memory_ratio:.1f}x smaller)"
    )

    # record the datapoint before any gate can fail — a regression run is
    # exactly the one whose numbers must survive
    out_path = bench_json_path("synthesis")
    out_path.write_text(json.dumps({
        "benchmark": "synthesis_scaling",
        "quick": QUICK,
        "workload": f"table-i-{TABLE_I_ROW}",
        "scale": 1.0,
        "duration_s": float(DURATION),
        "n_packets": int(engine_packets),
        "chunk_packets": int(CHUNK),
        "workers": int(WORKERS),
        "backend": BACKEND,
        "cpus": int(_CPUS),
        "reference_s": float(t_reference),
        "engine_s": float(t_engine),
        "stages_s": {name: float(secs) for name, secs in sorted(stages.items())},
        "speedup": float(speedup),
        "min_speedup": float(MIN_SPEEDUP),
        "peak_whole_mb": float(peak_whole / 1e6),
        "peak_stream_mb": float(peak_stream / 1e6),
        "memory_ratio": float(memory_ratio),
        # a perf datapoint that survived on retries or degraded
        # transport is not comparable: the events travel with it
        "retries": health.to_dict()["retries"],
        "degradations": health.to_dict()["degradations"],
    }, indent=2) + "\n")
    print(f"  wrote datapoint -> {out_path}")

    # the happy path must be genuinely happy: a datapoint built on
    # silent respawns or pickle fallbacks is measuring the wrong thing
    assert health.clean, f"resilience events during bench: {health.to_dict()}"

    # the engine's stream is bitwise its own materialised trace (the
    # chunk/worker invariance contract), checked on a capture small
    # enough to hold twice ...
    small = table_i_workload(TABLE_I_ROW, scale=1 / 32, duration=30.0)
    small_kwargs = small._synthesis_kwargs()
    materialised = SynthesisEngine().synthesize(3, **small_kwargs)
    streamed = np.concatenate(list(
        SynthesisEngine(chunk=4096, workers=2).synthesize_chunks(
            3, **small_kwargs
        )
    ))
    np.testing.assert_array_equal(materialised.trace.packets, streamed)
    # ... and the engine agrees with the legacy reference in distribution
    assert engine_packets == pytest.approx(ref_packets, rel=0.2)
    engine_rate = 8.0 * engine_bytes / DURATION
    assert engine_rate == pytest.approx(ref_rate, rel=0.2)
    # ... at the required throughput ...
    assert speedup >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP:g}x speedup, got {speedup:.1f}x"
    )
    # ... with peak memory governed by the carry, not the capture
    assert peak_stream * MIN_MEMORY_RATIO <= peak_whole, (
        f"streaming should bound memory: {peak_stream / 1e6:.0f} MB vs "
        f"{peak_whole / 1e6:.0f} MB"
    )


if __name__ == "__main__":
    raise SystemExit(
        pytest.main([__file__, "-q", "-s", "--benchmark-disable"])
    )
