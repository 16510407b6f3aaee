"""Measurement scaling — throughput and memory of the measurement engine.

The measurement-side twin of ``bench_engine_scaling.py``: one synthetic
capture is measured end-to-end (flow accounting → filtered rate series →
interarrival correlogram → EWMA parameter replay) by the pre-engine
reference implementations and by the streaming measurement engine, and
three claims are checked:

* **Speedup**: the engine pipeline is >= 10x faster than the reference
  pipeline (structured-dtype ``np.unique`` grouping, O(n·max_lag)
  autocovariance loop, per-flow Python EWMA replay) on the same trace
  (~1e6 packets by default; ``REPRO_BENCH_QUICK=1`` shrinks the capture
  for CI smoke).
* **Memory**: measuring the capture from disk with a small chunk keeps
  the tracemalloc peak bounded by the chunk size — >= 4x below measuring
  the whole file in one block.
* **Equivalence**: flows and rate series are bit-for-bit equal to the
  in-memory reference; FFT correlogram and closed-form EWMA match their
  loops to floating-point accuracy.

The run emits the measurement-side perf datapoint as
``BENCH_measurement.json`` (CI uploads it as an artifact); set
``REPRO_BENCH_MEASUREMENT_JSON`` to redirect it.
A quick run (``REPRO_BENCH_QUICK=1``) writes ``BENCH_measurement_quick.json``.
The datapoint records
the selected execution backend and a per-stage wall-time breakdown
(``stages_s``: shard fan-out, result apply, final flow assembly);
``REPRO_BENCH_WORKERS``/``REPRO_BENCH_BACKEND`` select the raced
configuration (CI's multi-core leg pins workers=4 on the shared-memory
process pool).

Run directly (``python benchmarks/bench_measurement_scaling.py``) or via
pytest (``pytest benchmarks/bench_measurement_scaling.py -s``).
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc
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
from repro.core import EmpiricalEnsemble, RectangularShot
from repro.generation import GenerationEngine
from repro.measurement import (
    MeasurementEngine,
    reference_export_flows,
    reference_ewma_replay,
)
from repro.stats import RateSeries, autocovariance_series
from repro.stats.estimators import replay_flow_statistics
from repro.trace import write_trace

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: Target packet count of the measured capture.
N_PACKETS = 250_000 if QUICK else 1_200_000
DURATION = 120.0 if QUICK else 400.0
DELTA = 0.05
TIMEOUT = 60.0
MAX_LAG_CAP = 4096  # correlogram depth (capped so the direct loop stays sane)
SEED = 7

#: Engine configuration raced against the reference path.  Key-space
#: sharding (``workers``) is exercised for correctness by the test suite;
#: the race defaults to one shard because on a single host the
#: surrounding small numpy ops are GIL-bound and extra shards cost more
#: in partitioning than they return.  CI's multi-core leg overrides
#: ``REPRO_BENCH_WORKERS``/``REPRO_BENCH_BACKEND`` to race the
#: shared-memory process pool instead.
CHUNK = 200_000
_CPUS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")  # Linux; fall back elsewhere
    else (os.cpu_count() or 1)
)
WORKERS = min(int(os.environ.get("REPRO_BENCH_WORKERS", "1")), _CPUS)
BACKEND = os.environ.get("REPRO_BENCH_BACKEND") or (
    "process" if WORKERS > 1 else "thread"
)

#: Required end-to-end speedup.  The acceptance bar is >= 10x on the
#: full ~1e6-packet capture; the shrunken quick-mode capture amortises
#: less fixed overhead, so its floor is lower.
MIN_SPEEDUP = 6.0 if QUICK else 10.0


def _build_trace():
    """A model-driven capture of ~N_PACKETS packets (fast to generate).

    The size law is mice-dominated (median 3 kB) so the capture carries a
    realistic flows-per-packet ratio — flow accounting and the per-flow
    EWMA replay see backbone-like work, not a handful of elephants.
    """
    gen = np.random.default_rng(42)
    n = 20_000
    sizes = gen.lognormal(np.log(3e3), 1.0, n)
    rates = gen.lognormal(np.log(25e3), 0.5, n)
    ensemble = EmpiricalEnsemble(sizes, sizes / rates)
    # ~ packets per flow from the packetizer's MSS split
    mean_packets = float(np.mean(np.maximum(np.ceil(sizes / 1460.0), 2.0)))
    arrival_rate = N_PACKETS / mean_packets / DURATION
    return GenerationEngine().packet_trace(
        arrival_rate,
        ensemble,
        RectangularShot(),
        DURATION,
        warmup=10.0,
        seed=SEED,
        name="measurement-bench",
    )


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


def _reference_pipeline(trace, max_lag):
    """The pre-engine measurement hot path, end to end."""
    flows, packet_map = reference_export_flows(trace, timeout=TIMEOUT)
    series = RateSeries.from_packets(
        trace.packets[packet_map >= 0], DELTA, duration=trace.duration
    )
    acov = autocovariance_series(
        flows.interarrival_times, max_lag, method="direct"
    )
    ewma = reference_ewma_replay(flows, eps=0.01)
    return flows, series, acov, ewma


def _engine_pipeline(trace, max_lag):
    """The streaming engine path: one pass + FFT + closed-form EWMA."""
    result = MeasurementEngine(
        chunk=CHUNK, workers=WORKERS, backend=BACKEND
    ).measure_trace(trace, delta=DELTA, timeout=TIMEOUT)
    acov = autocovariance_series(
        result.flows.interarrival_times, max_lag, method="fft"
    )
    ewma = replay_flow_statistics(result.flows, eps=0.01)
    return result.flows, result.series, acov, ewma


def test_measurement_scaling(benchmark, tmp_path):
    trace = _build_trace()
    capture = tmp_path / "bench.rptr"
    write_trace(trace, capture)
    probe_flows = MeasurementEngine().measure_trace(
        trace, timeout=TIMEOUT
    ).flows
    max_lag = min(MAX_LAG_CAP, max(64, (len(probe_flows) - 1) // 2))

    def build():
        reference, t_reference = _timed(
            lambda: _reference_pipeline(trace, max_lag)
        )
        reset_stage_timings()
        reset_run_health()
        engine, t_engine = _timed(lambda: _engine_pipeline(trace, max_lag))
        stages = stage_timings()
        health = run_health()
        small_chunk = max(10_000, N_PACKETS // 40)
        peak_whole = _peak_memory(
            lambda: MeasurementEngine().measure_file(
                capture, delta=DELTA, timeout=TIMEOUT
            )
        )
        peak_chunked = _peak_memory(
            lambda: MeasurementEngine(chunk=small_chunk).measure_file(
                capture, delta=DELTA, timeout=TIMEOUT
            )
        )
        return (
            reference, engine, (t_reference, t_engine, stages, health),
            (peak_whole, peak_chunked), small_chunk,
        )

    reference, engine, times, peaks, small_chunk = run_once(benchmark, build)
    t_reference, t_engine, stages, health = times
    peak_whole, peak_chunked = peaks
    ref_flows, ref_series, ref_acov, ref_ewma = reference
    eng_flows, eng_series, eng_acov, eng_ewma = engine
    speedup = t_reference / t_engine

    print_header(
        f"MEASUREMENT SCALING - {len(trace):,} packets, "
        f"{len(ref_flows):,} flows, {len(ref_series):,} bins, "
        f"{max_lag:,} lags"
        + ("  [quick mode; unset REPRO_BENCH_QUICK for ~1e6 packets]"
           if QUICK else "")
    )
    print(f"  {'path':>42s} {'time (s)':>10s} {'packets/s':>12s}")
    rows = (
        ("reference (unique/loop/python-ewma)", t_reference),
        (f"engine chunk={CHUNK} workers={WORKERS} backend={BACKEND}",
         t_engine),
    )
    for label, t in rows:
        print(f"  {label:>42s} {t:10.2f} {len(trace) / t:12.0f}")
    for name in sorted(stages, key=stages.get, reverse=True):
        print(f"  {'stage ' + name:>42s} {stages[name]:10.2f} "
              f"{100.0 * stages[name] / t_engine:11.0f}%")
    print(f"  end-to-end speedup: {speedup:.1f}x")
    print(
        f"  peak file-measure memory: whole-trace {peak_whole / 1e6:.0f} MB"
        f" -> chunk={small_chunk:,} {peak_chunked / 1e6:.0f} MB"
        f" ({peak_whole / peak_chunked:.1f}x smaller)"
    )

    # record the datapoint before any gate can fail — a regression run is
    # exactly the one whose numbers must survive
    out_path = bench_json_path("measurement")
    out_path.write_text(json.dumps({
        "benchmark": "measurement_scaling",
        "quick": QUICK,
        "n_packets": int(len(trace)),
        "n_flows": int(len(ref_flows)),
        "n_bins": int(len(ref_series)),
        "max_lag": int(max_lag),
        "chunk_packets": int(CHUNK),
        "workers": int(WORKERS),
        "backend": BACKEND,
        "cpus": int(_CPUS),
        "reference_s": float(t_reference),
        "engine_s": float(t_engine),
        "stages_s": {name: float(secs) for name, secs in sorted(stages.items())},
        "speedup": float(speedup),
        "peak_whole_mb": float(peak_whole / 1e6),
        "peak_chunked_mb": float(peak_chunked / 1e6),
        "small_chunk_packets": int(small_chunk),
        # a perf datapoint that survived on retries or degraded
        # transport is not comparable: the events travel with it
        "retries": health.to_dict()["retries"],
        "degradations": health.to_dict()["degradations"],
    }, indent=2) + "\n")
    print(f"  wrote datapoint -> {out_path}")

    # the happy path must be genuinely happy: a datapoint built on
    # silent respawns or pickle fallbacks is measuring the wrong thing
    assert health.clean, f"resilience events during bench: {health.to_dict()}"

    # the engine reproduces the reference measurement bit-for-bit ...
    np.testing.assert_array_equal(ref_flows.starts, eng_flows.starts)
    np.testing.assert_array_equal(ref_flows.sizes, eng_flows.sizes)
    np.testing.assert_array_equal(ref_flows.keys, eng_flows.keys)
    assert ref_flows.discarded_packets == eng_flows.discarded_packets
    np.testing.assert_array_equal(ref_series.values, eng_series.values)
    # ... matches the diagnostic loops to floating-point accuracy ...
    assert np.max(np.abs(ref_acov - eng_acov)) <= 1e-9 * max(ref_acov[0], 1.0)
    assert eng_ewma.mean_size == pytest.approx(ref_ewma.mean_size, rel=1e-9)
    assert eng_ewma.arrival_rate == pytest.approx(
        ref_ewma.arrival_rate, rel=1e-9
    )
    # ... at >= 10x the throughput ...
    assert speedup >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP:.0f}x speedup, got {speedup:.1f}x"
    )
    # ... with peak memory governed by the chunk, not the capture
    assert peak_chunked * 4.0 <= peak_whole, (
        f"chunking should bound memory: {peak_chunked / 1e6:.0f} MB vs "
        f"{peak_whole / 1e6:.0f} MB"
    )


if __name__ == "__main__":
    raise SystemExit(
        pytest.main([__file__, "-q", "-s", "--benchmark-disable"])
    )
