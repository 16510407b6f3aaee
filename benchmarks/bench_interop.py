"""Interop scaling — out-of-core telemetry import and export throughput.

One synthetic flow archive (NetFlow v5 on disk, ~200k records / ~1M
expanded packets by default; ``REPRO_BENCH_QUICK=1`` shrinks it for CI
smoke) is pushed through the full operator-telemetry loop and three
claims are checked:

* **Out-of-core import**: fitting an archive at least 10x larger than
  the reader chunk keeps the tracemalloc peak bounded — >= 4x below
  importing the same archive in one whole-file chunk; what remains is
  the O(flows) carry table, not the packet expansion.
* **Round trip**: the model parameters measured from the imported
  archive match the parameters of the flows that were exported
  (``lambda`` and ``E[S]`` exactly, ``E[S^2/D]`` to the wire formats'
  millisecond quantization).
* **Throughput**: decode + expand + measure sustains a paper-scale
  rate (the OC-12 traces are ~5k flow records/s of telemetry; the
  floor here is two orders above that).
* **Decode parity**: a decode-only pass over the NetFlow v5 archive
  takes at most 3x as long as one over the IPFIX archive of the same
  records (both readers decode whole blocks of records at once).

The run emits the interop perf datapoint as ``BENCH_interop.json`` (CI
uploads it as an artifact); set ``REPRO_BENCH_INTEROP_JSON`` to
redirect it.
A quick run (``REPRO_BENCH_QUICK=1``) writes ``BENCH_interop_quick.json``.

Run directly (``python -m pytest benchmarks/bench_interop.py -s``) or
via the benchmark suite.
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

from repro.interop import (
    FLOW_RECORD_DTYPE,
    IpfixReader,
    NetFlow5Reader,
    open_import_stream,
    write_ipfix,
    write_netflow5,
)
from repro.measurement import MeasurementEngine
from repro.trace import PACKET_DTYPE

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: Flow records in the archive (each expands to ~5 packets).
N_RECORDS = 40_000 if QUICK else 200_000
DURATION = 600.0
TIMEOUT = 8.0
DELTA = 0.2
SEED = 3

#: Import chunk, in flow records.  The memory gate requires the archive
#: on disk to be at least 10x the chunk's wire footprint.
CHUNK_RECORDS = max(1024, N_RECORDS // 64)

#: Decode + expand + measure floor, flow records per second.
MIN_RECORDS_PER_S = 20_000.0

#: NetFlow v5 decode may take at most this multiple of IPFIX's.
MAX_DECODE_RATIO = 3.0

#: Decode-only passes per format; the fastest is reported.
DECODE_REPEATS = 3


def _build_records() -> np.ndarray:
    """A start-ordered archive of overlapping, backbone-ish flows."""
    rng = np.random.default_rng(SEED)
    records = np.zeros(N_RECORDS, dtype=FLOW_RECORD_DTYPE)
    records["start"] = np.sort(
        rng.uniform(0.0, DURATION - 30.0, N_RECORDS)
    )
    packets = rng.integers(2, 9, N_RECORDS)
    # keep every expanded intra-record gap (span/(n-1)) below the idle
    # timeout, so re-measuring reproduces the archive's flows one-for-one,
    # and every span above the 1 ms wire quantization so none collapses
    # to a zero-duration record on the NetFlow side
    spans = np.clip(
        rng.exponential(2.0, N_RECORDS), 2e-3, 0.9 * TIMEOUT * (packets - 1)
    )
    records["end"] = records["start"] + spans
    records["src_addr"] = rng.integers(1, 2**32 - 1, N_RECORDS,
                                       dtype=np.uint32)
    records["dst_addr"] = rng.integers(1, 2**32 - 1, N_RECORDS,
                                       dtype=np.uint32)
    records["src_port"] = rng.integers(1024, 65535, N_RECORDS,
                                       dtype=np.uint16)
    records["dst_port"] = rng.choice([80, 443, 53, 22, 8080], N_RECORDS)
    records["protocol"] = rng.choice([6, 17], N_RECORDS, p=[0.9, 0.1])
    records["packets"] = packets
    records["octets"] = packets * rng.integers(200, 1400, N_RECORDS)
    return records


def _import_and_fit(path, chunk):
    stream = open_import_stream(
        path, format="netflow5", chunk=chunk, order="start"
    )
    result = MeasurementEngine().measure_chunks(
        stream, delta=DELTA, timeout=TIMEOUT, duration=DURATION
    )
    return stream, result


def _decode_s(reader_cls, path) -> float:
    """Fastest decode-only pass over an archive, in seconds."""
    best = float("inf")
    for _ in range(DECODE_REPEATS):
        decoded, elapsed = _timed(
            lambda: sum(b.size for b in reader_cls(path).record_chunks())
        )
        assert decoded == N_RECORDS
        best = min(best, elapsed)
    return best


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


def test_interop_scaling(benchmark, tmp_path):
    records = _build_records()
    archive = tmp_path / "bench.nf5"
    archive_ipfix = tmp_path / "bench.ipfix"

    def build():
        _, t_export = _timed(lambda: write_netflow5(records, archive))
        _, t_export_ipfix = _timed(
            lambda: write_ipfix(records, archive_ipfix)
        )
        t_decode = _decode_s(NetFlow5Reader, archive)
        t_decode_ipfix = _decode_s(IpfixReader, archive_ipfix)
        (stream, result), t_import = _timed(
            lambda: _import_and_fit(archive, CHUNK_RECORDS)
        )
        peak_chunked = _peak_memory(
            lambda: _import_and_fit(archive, CHUNK_RECORDS)
        )
        peak_whole = _peak_memory(
            lambda: _import_and_fit(archive, N_RECORDS)
        )
        return (
            stream, result,
            (t_export, t_export_ipfix, t_decode, t_decode_ipfix, t_import),
            (peak_chunked, peak_whole),
        )

    stream, result, times, peaks = run_once(benchmark, build)
    t_export, t_export_ipfix, t_decode, t_decode_ipfix, t_import = times
    peak_chunked, peak_whole = peaks

    archive_bytes = archive.stat().st_size
    chunk_wire_bytes = CHUNK_RECORDS * 48
    expanded_bytes = int(records["packets"].sum()) * PACKET_DTYPE.itemsize
    records_per_s = N_RECORDS / t_import
    stats = result.flows.statistics(DURATION)

    print_header(
        f"INTEROP SCALING - {N_RECORDS:,} flow records, "
        f"{stream.packets_emitted:,} expanded packets, "
        f"{archive_bytes / 1e6:.1f} MB on the wire"
        + ("  [quick mode; unset REPRO_BENCH_QUICK for 200k records]"
           if QUICK else "")
    )
    print(f"  export netflow5 : {t_export:8.2f} s "
          f"({N_RECORDS / t_export:12.0f} records/s)")
    print(f"  export ipfix    : {t_export_ipfix:8.2f} s "
          f"({N_RECORDS / t_export_ipfix:12.0f} records/s)")
    print(f"  decode netflow5 : {t_decode:8.3f} s "
          f"({N_RECORDS / t_decode:12.0f} records/s)")
    print(f"  decode ipfix    : {t_decode_ipfix:8.3f} s "
          f"({N_RECORDS / t_decode_ipfix:12.0f} records/s, "
          f"netflow5/ipfix {t_decode / t_decode_ipfix:.2f}x)")
    print(f"  import + fit    : {t_import:8.2f} s "
          f"({records_per_s:12.0f} records/s)")
    print(f"  archive/chunk ratio: {archive_bytes / chunk_wire_bytes:.0f}x "
          f"(chunk {CHUNK_RECORDS:,} records)")
    print(f"  peak import memory: chunked {peak_chunked / 1e6:.1f} MB, "
          f"whole-archive {peak_whole / 1e6:.1f} MB "
          f"({peak_whole / peak_chunked:.1f}x larger), "
          f"full expansion would be {expanded_bytes / 1e6:.1f} MB of "
          "packets alone")
    print(f"  fitted: lambda = {stats.arrival_rate:.1f}/s  "
          f"E[S] = {stats.mean_size:.0f} B  "
          f"E[S^2/D] = {stats.mean_square_size_over_duration:.4g} B^2/s")

    # record the datapoint before any gate can fail — a regression run
    # is exactly the one whose numbers must survive
    out_path = bench_json_path("interop")
    out_path.write_text(json.dumps({
        "benchmark": "interop_scaling",
        "quick": QUICK,
        "n_records": int(N_RECORDS),
        "n_packets_expanded": int(stream.packets_emitted),
        "archive_bytes": int(archive_bytes),
        "chunk_records": int(CHUNK_RECORDS),
        "archive_over_chunk": float(archive_bytes / chunk_wire_bytes),
        "export_netflow5_s": float(t_export),
        "export_ipfix_s": float(t_export_ipfix),
        "decode_netflow5_s": float(t_decode),
        "decode_ipfix_s": float(t_decode_ipfix),
        "import_fit_s": float(t_import),
        "records_per_s": float(records_per_s),
        "peak_chunked_mb": float(peak_chunked / 1e6),
        "peak_whole_mb": float(peak_whole / 1e6),
        "memory_ratio": float(peak_whole / peak_chunked),
        "lambda_per_s": float(stats.arrival_rate),
        "mean_size_b": float(stats.mean_size),
        "mean_sq_size_over_duration": float(
            stats.mean_square_size_over_duration
        ),
    }, indent=2) + "\n")
    print(f"  wrote datapoint -> {out_path}")

    # the acceptance geometry: the archive dwarfs the chunk ...
    assert archive_bytes >= 10 * chunk_wire_bytes
    # ... and the chunked import's footprint stays bounded — >= 4x
    # below the whole-archive import (what remains is the O(flows)
    # carry/flow table, which no importer can avoid)
    assert peak_chunked * 4 <= peak_whole

    # round trip: every archived flow re-forms under the same timeout
    assert len(result.flows) == N_RECORDS
    assert stats.arrival_rate == pytest.approx(N_RECORDS / DURATION)
    assert stats.mean_size == pytest.approx(
        float(records["octets"].mean())
    )

    # throughput floor
    assert records_per_s >= MIN_RECORDS_PER_S

    # decode parity: NetFlow v5 is not the slow format any more
    assert t_decode <= MAX_DECODE_RATIO * t_decode_ipfix
