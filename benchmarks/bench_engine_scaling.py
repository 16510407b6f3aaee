"""Engine scaling — throughput and memory of the generation engine.

Measures the chunked/vectorized engine against the original per-flow
Python loop (kept verbatim as
:func:`repro.generation.reference_rate_series`) fed the flows the
engine's arrival cells draw for the same seed, so both sides produce the
*identical* ``RateSeries`` while only the execution strategy differs.
Three claims are checked:

* **Speedup**: the engine is >= 10x faster than the reference loop at the
  benchmark's flow count (~1e6 flows with ``REPRO_BENCH_FULL=1``, ~2e5 in
  the default quick mode so CI smoke stays cheap).
* **Memory**: peak accumulation memory is bounded by the chunk size, not
  the horizon — a small chunk cuts the tracemalloc peak by >= 4x versus
  processing the horizon at once.
* **Determinism**: every engine configuration returns the reference
  output bit-for-bit.

Run directly (``python benchmarks/bench_engine_scaling.py``) or through
pytest (``pytest benchmarks/bench_engine_scaling.py -s``).
"""

from __future__ import annotations

import os
import time
import tracemalloc

import numpy as np
from conftest import print_header, run_once

from repro.core import EmpiricalEnsemble, TriangularShot
from repro.generation import GenerationEngine, reference_rate_series
from repro.generation.engine import _CellSampler

FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")

#: Target flow count of the scaling run.
N_FLOWS = 1_000_000 if FULL else 200_000
DURATION = 240.0
WARMUP = 5.0
DELTA = 0.2
SEED = 123


def _population() -> EmpiricalEnsemble:
    gen = np.random.default_rng(42)
    n = 20_000
    sizes = gen.lognormal(np.log(12e3), 1.0, n)
    rates = gen.lognormal(np.log(15e3), 0.5, n)
    return EmpiricalEnsemble(sizes, sizes / rates)


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


def test_engine_scaling(benchmark):
    ensemble = _population()
    arrival_rate = N_FLOWS / (DURATION + WARMUP)
    shot = TriangularShot()
    kwargs = dict(duration=DURATION, delta=DELTA, warmup=WARMUP)
    sampler = _CellSampler(arrival_rate, ensemble, DURATION, WARMUP, SEED)
    blocks = [block for block, _ in sampler.cells_before(np.inf)]
    flows = [np.concatenate(col) for col in zip(*blocks)]

    def build():
        reference, t_reference = _timed(
            lambda: reference_rate_series(*flows, shot, DURATION, DELTA)
        )
        chunked, t_chunked = _timed(
            lambda: GenerationEngine(chunk=10.0).rate_series(
                arrival_rate, ensemble, shot, seed=SEED, **kwargs
            )
        )
        threaded, t_threaded = _timed(
            lambda: GenerationEngine(chunk=10.0, workers=4).rate_series(
                arrival_rate, ensemble, shot, seed=SEED, **kwargs
            )
        )
        peak_whole = _peak_memory(
            lambda: GenerationEngine(chunk=None).rate_series(
                arrival_rate, ensemble, shot, seed=SEED, **kwargs
            )
        )
        peak_chunked = _peak_memory(
            lambda: GenerationEngine(chunk=2.0).rate_series(
                arrival_rate, ensemble, shot, seed=SEED, **kwargs
            )
        )
        return (
            reference,
            (chunked, threaded),
            (t_reference, t_chunked, t_threaded),
            (peak_whole, peak_chunked),
        )

    reference, engines, times, peaks = run_once(benchmark, build)
    t_reference, t_chunked, t_threaded = times
    peak_whole, peak_chunked = peaks
    n_generated = int(round(arrival_rate * (DURATION + WARMUP)))

    print_header(
        f"ENGINE SCALING - ~{n_generated:,} flows, "
        f"{int(DURATION / DELTA):,} bins"
        + ("" if FULL else "  [quick mode; REPRO_BENCH_FULL=1 for ~1e6 flows]")
    )
    print(f"  {'path':>34s} {'time (s)':>10s} {'flows/s':>12s}")
    rows = (
        ("reference per-flow loop", t_reference),
        ("engine chunk=10s", t_chunked),
        ("engine chunk=10s workers=4", t_threaded),
    )
    for label, t in rows:
        print(f"  {label:>34s} {t:10.2f} {n_generated / t:12.0f}")
    speedup = t_reference / t_chunked
    print(f"  speedup (chunked vs loop): {speedup:.1f}x")
    print(
        f"  peak accumulation memory: whole-horizon {peak_whole / 1e6:.0f} MB"
        f" -> chunk=2s {peak_chunked / 1e6:.0f} MB"
        f" ({peak_whole / peak_chunked:.1f}x smaller)"
    )

    # the engine reproduces the loop bit-for-bit ...
    for series in engines:
        np.testing.assert_array_equal(reference.values, series.values)
    # ... at >= 10x the throughput ...
    assert speedup >= 10.0, f"expected >= 10x speedup, got {speedup:.1f}x"
    # ... with peak memory governed by the chunk, not the horizon
    assert peak_chunked * 4.0 <= peak_whole, (
        f"chunking should bound memory: {peak_chunked / 1e6:.0f} MB vs "
        f"{peak_whole / 1e6:.0f} MB"
    )


if __name__ == "__main__":
    import pytest

    raise SystemExit(
        pytest.main([__file__, "-q", "-s", "--benchmark-disable"])
    )
