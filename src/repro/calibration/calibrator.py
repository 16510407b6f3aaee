"""Calibration drivers: flow arrays, FlowSets and telemetry archives.

Three entry points, one funnel:

* :func:`calibrate_sizes` — accumulate raw size/start arrays into a
  :class:`~repro.calibration.accumulators.CalibrationAccumulator`,
  optionally chunked and fanned over the ``repro.execution`` pool
  (serial / thread / process).  Because the accumulator state is
  integer-exact and merge is associative-commutative, the result is
  bitwise identical for every ``chunk`` x ``workers`` x ``backend``.
* :func:`calibrate_flows` — the same, from a measured
  :class:`~repro.flows.FlowSet` (the post-``AccountFlows`` path).
* :func:`calibrate_archive` — out-of-core over a telemetry file:
  NetFlow v5 / IPFIX archives stream their flow *records* straight into
  accumulation (no packet expansion needed — the records are the
  flows); pcap / ``.rptr`` captures are measured into flows first
  through the streaming :class:`~repro.measurement.MeasurementEngine`.

All three end in :func:`calibrate_accumulator`, which fits every
requested family, runs model selection, and assembles the
:class:`~repro.calibration.report.CalibrationReport`.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..exceptions import ParameterError
from ..execution import make_pool
from .accumulators import (
    DEFAULT_BINS,
    DEFAULT_TAIL_K,
    DEFAULT_TIME_BINS,
    CalibrationAccumulator,
)
from .families import CALIBRATION_FAMILIES
from .fitters import fit_all_families, select_best
from .report import CalibrationReport, DiurnalProfile

__all__ = [
    "DEFAULT_TAIL_QUANTILES",
    "calibrate_accumulator",
    "calibrate_archive",
    "calibrate_flows",
    "calibrate_sizes",
]

#: Empirical size quantiles recorded in every report (closed-loop
#: validation compares the synthesised trace against these).
DEFAULT_TAIL_QUANTILES = (0.5, 0.9, 0.99, 0.999)


def _accumulate_task(item):
    """Fold one ``(sizes, starts, geometry)`` chunk into a fresh
    accumulator — module-level so the process backend can pickle it."""
    sizes, starts, duration, bins, tail_k, time_bins = item
    acc = CalibrationAccumulator(
        duration=duration, bins=bins, tail_k=tail_k, time_bins=time_bins
    )
    return acc.update(sizes, starts)


def _merge_parts(acc, parts):
    for part in parts:
        acc.merge(part)
    return acc


def calibrate_sizes(
    sizes,
    starts=None,
    *,
    duration: float,
    bins: int = DEFAULT_BINS,
    tail_k: int = DEFAULT_TAIL_K,
    time_bins: int = DEFAULT_TIME_BINS,
    chunk: int | None = None,
    workers: int = 1,
    backend: str = "serial",
) -> CalibrationAccumulator:
    """Accumulate flow sizes (and optional start times), chunked + pooled."""
    sizes = np.asarray(sizes, dtype=np.float64).ravel()
    if starts is not None:
        starts = np.asarray(starts, dtype=np.float64).ravel()
        if starts.size != sizes.size:
            raise ParameterError(
                f"sizes and starts must align, got {sizes.size} sizes vs "
                f"{starts.size} starts"
            )
    acc = CalibrationAccumulator(
        duration=duration, bins=bins, tail_k=tail_k, time_bins=time_bins
    )
    if sizes.size == 0:
        return acc
    step = int(chunk) if chunk else sizes.size
    if step < 1:
        raise ParameterError(f"chunk must be >= 1 flow, got {chunk!r}")
    items = [
        (
            sizes[i: i + step],
            None if starts is None else starts[i: i + step],
            acc.duration, acc.bins, acc.tail_k, acc.time_bins,
        )
        for i in range(0, sizes.size, step)
    ]
    with make_pool(backend, workers) as pool:
        return _merge_parts(acc, pool.map_ordered(_accumulate_task, items))


def calibrate_accumulator(
    acc: CalibrationAccumulator,
    *,
    source: str = "<arrays>",
    families=CALIBRATION_FAMILIES,
    select: str = "bic",
    restarts: int = 4,
    seed: int = 0,
    tail_quantiles=DEFAULT_TAIL_QUANTILES,
    link_capacity_bps: float | None = None,
    backend: str = "serial",
    workers: int = 1,
    metadata: dict | None = None,
) -> CalibrationReport:
    """Fit, select, and assemble the report from accumulated state."""
    acc.require_data()
    fits = fit_all_families(acc, families, restarts=restarts, seed=seed)
    best = select_best(fits, select)
    diurnal = DiurnalProfile(
        edges=tuple(float(e) for e in acc.time_edges),
        rates=tuple(float(r) for r in acc.diurnal_rates()),
    )
    return CalibrationReport(
        source=str(source),
        flow_count=acc.n,
        total_bytes=acc.total_bytes,
        duration=acc.duration,
        arrival_rate=acc.arrival_rate,
        mean_size=acc.mean_size,
        mean_rate_bps=acc.mean_rate_bps,
        family=best.family,
        params=dict(best.params),
        selection=select,
        candidates=fits,
        diurnal=diurnal,
        tail_quantiles=tuple(
            (float(q), acc.quantile(q)) for q in tail_quantiles
        ),
        seed=int(seed),
        bins=acc.bins,
        tail_k=acc.tail_k,
        link_capacity_bps=(
            float(link_capacity_bps) if link_capacity_bps else None
        ),
        backend=backend,
        workers=int(workers),
        metadata=dict(metadata or {}),
    )


def calibrate_flows(
    flows,
    *,
    duration: float,
    source: str = "<flows>",
    families=CALIBRATION_FAMILIES,
    select: str = "bic",
    restarts: int = 4,
    seed: int = 0,
    bins: int = DEFAULT_BINS,
    tail_k: int = DEFAULT_TAIL_K,
    time_bins: int = DEFAULT_TIME_BINS,
    tail_quantiles=DEFAULT_TAIL_QUANTILES,
    link_capacity_bps: float | None = None,
    chunk: int | None = None,
    workers: int = 1,
    backend: str = "serial",
    metadata: dict | None = None,
) -> CalibrationReport:
    """Calibrate a measured :class:`~repro.flows.FlowSet`."""
    acc = calibrate_sizes(
        flows.sizes,
        flows.starts,
        duration=duration,
        bins=bins,
        tail_k=tail_k,
        time_bins=time_bins,
        chunk=chunk,
        workers=workers,
        backend=backend,
    )
    return calibrate_accumulator(
        acc,
        source=source,
        families=families,
        select=select,
        restarts=restarts,
        seed=seed,
        tail_quantiles=tail_quantiles,
        link_capacity_bps=link_capacity_bps,
        backend=backend,
        workers=workers,
        metadata=metadata,
    )


def _record_reader(path, format: str, chunk: int | None, errors: str):
    from ..interop.ipfix import IpfixReader
    from ..interop.netflow5 import NetFlow5Reader

    reader_cls = NetFlow5Reader if format == "netflow5" else IpfixReader
    return reader_cls(path, chunk=int(chunk) if chunk else 65536, errors=errors)


def calibrate_archive(
    path,
    *,
    format: str = "auto",
    duration: float | None = None,
    link_capacity_bps: float | None = None,
    errors: str = "strict",
    families=CALIBRATION_FAMILIES,
    select: str = "bic",
    restarts: int = 4,
    seed: int = 0,
    bins: int = DEFAULT_BINS,
    tail_k: int = DEFAULT_TAIL_K,
    time_bins: int = DEFAULT_TIME_BINS,
    tail_quantiles=DEFAULT_TAIL_QUANTILES,
    chunk: int | None = None,
    workers: int = 1,
    backend: str = "serial",
) -> CalibrationReport:
    """Calibrate a telemetry archive out-of-core.

    Flow-record formats (NetFlow v5, IPFIX) accumulate straight from
    the record stream in bounded memory; packet formats (pcap,
    ``.rptr``) run through the streaming measurement engine's flow
    exporter first, so the calibrated flows obey the same 60 s-timeout
    / single-packet-discard semantics as everything else in the repo.
    """
    from ..interop.adapter import (
        _resolve_rebase,
        detect_format,
        open_import_stream,
        scan_record_chunks,
    )

    path = Path(path)
    if format == "auto":
        format = detect_format(path)
    metadata = {"format": format}

    if format in ("netflow5", "ipfix"):
        scan = scan_record_chunks(_record_reader(path, format, chunk, errors))
        if scan.empty:
            raise ParameterError(
                f"{path}: archive holds no flow records; nothing to calibrate"
            )
        offset = _resolve_rebase("auto", scan.t_min)
        span = duration if duration is not None else scan.t_max - offset
        if span <= 0.0:
            # single-instant archives still need a positive window
            span = 1.0
        acc = CalibrationAccumulator(
            duration=span, bins=bins, tail_k=tail_k, time_bins=time_bins
        )
        batch = []
        batch_limit = max(int(workers), 1)
        # one pool for the whole stream; it forks on the first batch
        with make_pool(backend, workers) as pool:
            for block in _record_reader(path, format, chunk, errors):
                if block.size == 0:
                    continue
                batch.append((
                    block["octets"].astype(np.float64),
                    block["start"].astype(np.float64) - offset,
                    acc.duration, acc.bins, acc.tail_k, acc.time_bins,
                ))
                if len(batch) >= batch_limit:
                    _merge_parts(
                        acc, pool.map_ordered(_accumulate_task, batch)
                    )
                    batch = []
            if batch:
                _merge_parts(acc, pool.map_ordered(_accumulate_task, batch))
        metadata["records"] = scan.records
        capacity = link_capacity_bps
    else:
        stream = open_import_stream(
            path,
            format=format,
            chunk=chunk,
            duration=duration,
            link_capacity=link_capacity_bps,
            errors=errors,
        )
        from ..measurement.engine import MeasurementEngine

        measured = MeasurementEngine(
            chunk=chunk, workers=workers, backend=backend
        ).measure_chunks(stream, duration=duration)
        if len(measured.flows) == 0:
            raise ParameterError(
                f"{path}: no flows survived measurement; nothing to calibrate"
            )
        acc = calibrate_sizes(
            measured.flows.sizes,
            measured.flows.starts,
            duration=measured.duration,
            bins=bins,
            tail_k=tail_k,
            time_bins=time_bins,
            chunk=chunk,
            workers=workers,
            backend=backend,
        )
        metadata["packets"] = measured.packet_count
        capacity = link_capacity_bps or measured.link_capacity

    return calibrate_accumulator(
        acc,
        source=str(path),
        families=families,
        select=select,
        restarts=restarts,
        seed=seed,
        tail_quantiles=tail_quantiles,
        link_capacity_bps=capacity,
        backend=backend,
        workers=workers,
        metadata=metadata,
    )
