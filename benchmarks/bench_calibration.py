"""Calibration scaling — out-of-core model fitting throughput and memory.

One synthetic NetFlow v5 archive (~150k flow records by default;
``REPRO_BENCH_QUICK=1`` shrinks it for CI smoke) is calibrated twice and
three claims are checked:

* **Out-of-core fitting**: streaming the archive through the
  sufficient-statistics accumulator in small chunks keeps the
  tracemalloc peak bounded — >= 4x below loading every size into memory
  and fitting the raw arrays; what remains is the fixed-size histogram
  state, not the sample.
* **Bitwise invariance**: the streamed report equals the in-memory
  report field-for-field — chunking is an implementation detail, not a
  statistical choice.
* **Throughput**: decode + accumulate + fit sustains a paper-scale
  rate (the OC-12 traces are ~5k flow records/s of telemetry; the
  floor here is an order above that).

The run emits the calibration perf datapoint as
``BENCH_calibration.json`` (CI uploads it as an artifact); set
``REPRO_BENCH_CALIBRATION_JSON`` to redirect it.
A quick run (``REPRO_BENCH_QUICK=1``) writes ``BENCH_calibration_quick.json``.
It splits the
streamed time into ``fit_s`` (``calibrate_accumulator`` on the streamed
accumulator: the family fits and model selection) and
``decode_accumulate_s`` (the rest), and names the host (``cpus``,
``python``, ``numpy``, ``numba``).

Run directly (``python -m pytest benchmarks/bench_calibration.py -s``)
or via the benchmark suite.
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import os
import platform
import time
import tracemalloc
from pathlib import Path

import numpy as np
from conftest import bench_json_path, print_header, run_once

from repro.calibration import (
    calibrate_accumulator,
    calibrate_archive,
    calibrate_sizes,
)
from repro.calibration import calibrator
from repro.interop import FLOW_RECORD_DTYPE, NetFlow5Reader, write_netflow5

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: Flow records in the archive.
N_RECORDS = 30_000 if QUICK else 150_000
DURATION = 600.0
SEED = 3
RESTARTS = 2

#: Calibration chunk, in flow records.  The memory gate requires the
#: in-memory sample to be far larger than one streamed chunk.
CHUNK_RECORDS = max(1024, N_RECORDS // 64)

#: Decode + accumulate + fit floor, flow records per second.
MIN_RECORDS_PER_S = 50_000.0


def _build_records() -> np.ndarray:
    """A start-ordered archive: lognormal body plus Pareto elephants."""
    rng = np.random.default_rng(SEED)
    records = np.zeros(N_RECORDS, dtype=FLOW_RECORD_DTYPE)
    records["start"] = np.sort(rng.uniform(0.0, DURATION, N_RECORDS))
    records["end"] = records["start"] + rng.uniform(0.1, 5.0, N_RECORDS)
    records["src_addr"] = rng.integers(1, 2**32 - 1, N_RECORDS,
                                       dtype=np.uint32)
    records["dst_addr"] = rng.integers(1, 2**32 - 1, N_RECORDS,
                                       dtype=np.uint32)
    records["src_port"] = rng.integers(1024, 65535, N_RECORDS,
                                       dtype=np.uint16)
    records["dst_port"] = rng.choice([80, 443, 53], N_RECORDS)
    records["protocol"] = rng.choice([6, 17], N_RECORDS, p=[0.9, 0.1])
    body = rng.lognormal(np.log(3000.0), 0.9, N_RECORDS)
    tail = 2e4 * (1.0 - rng.random(N_RECORDS)) ** (-1.0 / 1.8)
    octets = np.where(rng.random(N_RECORDS) < 0.92, body,
                      np.minimum(tail, 5e6))
    records["octets"] = np.maximum(np.rint(octets), 40).astype(np.uint64)
    records["packets"] = np.maximum(records["octets"] // 1460, 1)
    return records


def _calibrate_streaming(archive):
    return calibrate_archive(
        archive,
        duration=DURATION,
        chunk=CHUNK_RECORDS,
        restarts=RESTARTS,
        seed=0,
    )


def _calibrate_in_memory(archive):
    """The naive baseline: decode the whole archive into memory, then
    fit the raw sample arrays in one shot."""
    reader = NetFlow5Reader(archive, chunk=N_RECORDS)
    records = np.concatenate(list(reader.record_chunks()))
    sizes = records["octets"].astype(np.float64)
    starts = records["start"].astype(np.float64)
    acc = calibrate_sizes(sizes, starts, duration=DURATION)
    return calibrate_accumulator(
        acc, source="in-memory", restarts=RESTARTS, seed=0
    )


@contextlib.contextmanager
def _fit_timer():
    """Yield a one-item list that collects the seconds spent in
    ``calibrate_accumulator`` while the block runs."""
    seconds = [0.0]
    fit = calibrator.calibrate_accumulator

    def timed_fit(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fit(*args, **kwargs)
        finally:
            seconds[0] += time.perf_counter() - t0

    calibrator.calibrate_accumulator = timed_fit
    try:
        yield seconds
    finally:
        calibrator.calibrate_accumulator = fit


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


def test_calibration_scaling(benchmark, tmp_path):
    records = _build_records()
    archive = tmp_path / "bench.nf5"
    write_netflow5(records, archive)

    def build():
        with _fit_timer() as t_fit:
            streamed, t_stream = _timed(
                lambda: _calibrate_streaming(archive)
            )
        in_memory, t_memory = _timed(lambda: _calibrate_in_memory(archive))
        peak_streamed = _peak_memory(lambda: _calibrate_streaming(archive))
        peak_memory = _peak_memory(lambda: _calibrate_in_memory(archive))
        return streamed, in_memory, (t_stream, t_fit[0], t_memory), (
            peak_streamed, peak_memory,
        )

    streamed, in_memory, times, peaks = run_once(benchmark, build)
    t_stream, t_fit, t_memory = times
    peak_streamed, peak_in_memory = peaks

    archive_bytes = archive.stat().st_size
    records_per_s = N_RECORDS / t_stream

    print_header(
        f"CALIBRATION SCALING - {N_RECORDS:,} flow records, "
        f"{archive_bytes / 1e6:.1f} MB on the wire"
        + ("  [quick mode; unset REPRO_BENCH_QUICK for 150k records]"
           if QUICK else "")
    )
    print(f"  streamed calibrate : {t_stream:8.2f} s "
          f"({records_per_s:12.0f} records/s, "
          f"chunk {CHUNK_RECORDS:,} records)")
    print(f"    decode+accumulate: {t_stream - t_fit:8.2f} s, "
          f"fit: {t_fit:.2f} s")
    print(f"  in-memory calibrate: {t_memory:8.2f} s")
    print(f"  peak memory: streamed {peak_streamed / 1e6:.1f} MB, "
          f"in-memory {peak_in_memory / 1e6:.1f} MB "
          f"({peak_in_memory / peak_streamed:.1f}x larger)")
    print(f"  fitted: family = {streamed.family}  "
          f"lambda = {streamed.arrival_rate:.1f}/s  "
          f"E[S] = {streamed.mean_size:.0f} B")

    # record the datapoint before any gate can fail — a regression run
    # is exactly the one whose numbers must survive
    out_path = bench_json_path("calibration")
    out_path.write_text(json.dumps({
        "benchmark": "calibration_scaling",
        "quick": QUICK,
        "n_records": int(N_RECORDS),
        "archive_bytes": int(archive_bytes),
        "chunk_records": int(CHUNK_RECORDS),
        "streamed_s": float(t_stream),
        "decode_accumulate_s": float(t_stream - t_fit),
        "fit_s": float(t_fit),
        "in_memory_s": float(t_memory),
        "records_per_s": float(records_per_s),
        "peak_streamed_mb": float(peak_streamed / 1e6),
        "peak_in_memory_mb": float(peak_in_memory / 1e6),
        "memory_ratio": float(peak_in_memory / peak_streamed),
        "family": streamed.family,
        "lambda_per_s": float(streamed.arrival_rate),
        "mean_size_b": float(streamed.mean_size),
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }, indent=2) + "\n")
    print(f"  wrote datapoint -> {out_path}")

    # streaming's footprint stays bounded — >= 4x below holding the
    # sample in memory (what remains is the fixed histogram state plus
    # one decoded chunk)
    assert peak_streamed * 4 <= peak_in_memory

    # chunking is invisible: identical report modulo provenance fields
    a, b = streamed.to_dict(), in_memory.to_dict()
    for skip in ("source", "metadata", "backend", "workers"):
        a.pop(skip, None), b.pop(skip, None)
    assert a == b

    # throughput floor
    assert records_per_s >= MIN_RECORDS_PER_S
