"""Chunked, vectorized, parallel traffic-generation engine.

The original section VII-C generators looped over flows in Python and
materialised the whole horizon at once, which caps them at a few hundred
thousand flows.  This engine is the scalable substrate every generation
entry point now routes through.  It provides three orthogonal mechanisms:

**Vectorization.**  The per-flow bin scatter becomes one grouped
segment-sum: every (flow, bin) overlap is expanded into a flat row, the
shot's cumulative byte curve is evaluated once per row, and
``np.bincount`` accumulates the increments.  Rows are laid out in flow
order, so each bin receives its floating-point additions in exactly the
order the reference loop performed them — the vectorized output is
**bit-for-bit identical** to :func:`repro.generation.reference_rate_series`
for the same seed.  For the rectangular shot a closed-form fast path
(difference-array of flow rates plus two partial-bin corrections per
flow) skips the row expansion entirely; it is exact up to float roundoff
rather than bitwise, so it is only used when ``exact=False``.

**Chunking.**  Time is cut into fixed windows of ``chunk`` seconds
(aligned to whole bins for rate paths).  Each chunk's accumulation sees
only the rows overlapping it, so peak memory is bounded by the chunk
size instead of the horizon.  Flows spanning chunk boundaries are exact:
a flow's contribution to any bin is the increment of its cumulative
curve over that bin, wherever the flow started.  In streamed mode
(:meth:`GenerationEngine.rate_series_streamed` and
:meth:`GenerationEngine.write_packet_trace`) arrival sampling is chunked
too: flows are drawn per fixed *arrival cell* from
``numpy.random.SeedSequence`` children, kept in a buffer only while they
can still contribute, and dropped once the horizon has passed them — so
arbitrarily long horizons run in memory proportional to the stationary
flow population, not the duration.

**Parallelism.**  Chunks cover disjoint bin ranges, so they fan out over
a :func:`repro.execution.make_pool` pool (``workers`` x ``backend``).
Sampling is either a single compat RNG stream (exact mode) or per-cell
``SeedSequence`` children keyed only by cell index, hence results are
deterministic for a given seed regardless of worker count, and — for
the exact scatter path — bitwise invariant to the chunk size as well.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .._util import as_rng, check_positive
from ..core.ensemble import FlowEnsemble
from ..core.shots import PowerShot, Shot
from ..exceptions import ParameterError
from ..execution import check_backend, make_pool
from ..kernels import powershot_scatter
from ..netsim.addresses import AddressSpace
from ..netsim.packetize import packetize_shots
from ..stats.timeseries import RateSeries
from ..trace.io import TraceWriter
from ..trace.packet import PacketTrace, packets_from_columns

__all__ = [
    "DEFAULT_ARRIVAL_CELL",
    "EngineConfig",
    "GenerationEngine",
    "default_engine",
]

#: Width (seconds) of one arrival-sampling cell in streamed mode.  Part of
#: the seeding contract: changing it changes which SeedSequence child a
#: flow is drawn from, so it is a config knob rather than a tuning default.
DEFAULT_ARRIVAL_CELL = 64.0

#: Number of (size, duration) probe samples used to size the warm-up.
_WARMUP_PROBE = 2048


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the generation engine.

    Parameters
    ----------
    chunk:
        Processing window in seconds; ``None`` processes the whole horizon
        as one chunk.  Peak accumulation memory scales with ``chunk``.
    workers:
        Pool width for independent chunks / links / seeds.  Results
        never depend on it.
    backend:
        Pool flavour: ``"serial"`` runs inline, ``"thread"`` (default)
        uses a thread pool, ``"process"`` a fork-based shared-memory
        process pool (see :mod:`repro.execution`).  Results never depend
        on it either — the bitwise contracts extend to the backend axis.
    arrival_cell:
        Streamed-mode sampling cell width in seconds.  Flows are drawn per
        cell from a dedicated ``SeedSequence`` child, which is what makes
        streamed output invariant to ``chunk`` and ``workers``.
    rect_fast_path:
        Allow the closed-form rectangular accumulation when bitwise
        reference equality is not requested.
    """

    chunk: float | None = None
    workers: int = 1
    backend: str = "thread"
    arrival_cell: float = DEFAULT_ARRIVAL_CELL
    rect_fast_path: bool = True
    retry: object | None = None  # RetryPolicy; process-backend watchdog

    def __post_init__(self) -> None:
        if self.chunk is not None:
            check_positive("chunk", self.chunk)
        workers = int(self.workers)
        if workers != self.workers or workers < 1:
            raise ParameterError(
                f"workers must be an integer >= 1, got {self.workers!r}"
            )
        object.__setattr__(self, "workers", workers)
        check_backend("backend", self.backend)
        check_positive("arrival_cell", self.arrival_cell)


def _is_rectangular(shot: Shot) -> bool:
    return isinstance(shot, PowerShot) and shot.power == 0.0


def _warmup_from_probe(ensemble: FlowEnsemble, rng) -> float:
    _, probe_durations = ensemble.sample(_WARMUP_PROBE, rng)
    return float(np.quantile(probe_durations, 0.99))


def _bin_bounds(starts, durations, delta, n_bins):
    """First/last touched bin per flow, replicating the reference loop.

    Returns ``(active, lo, hi)``: the mask of flows intersecting the
    observation window and, for those flows only, the clamped half-open
    bin range ``[lo, hi)`` (always at least one bin wide).
    """
    first = np.clip(np.floor(starts / delta).astype(np.int64), 0, n_bins)
    last = np.clip(
        np.ceil((starts + durations) / delta).astype(np.int64), 0, n_bins
    )
    active = (last > 0) & (first < n_bins)
    lo = first[active]
    hi = np.minimum(np.maximum(last[active], lo + 1), n_bins)
    return active, lo, hi


def _chunk_buckets(lo, hi, ranges):
    """Flow indices overlapping each bin range, each bucket in flow order.

    Chunk ranges are uniform (``per`` bins, last possibly shorter), so a
    flow spanning bins ``[lo, hi)`` overlaps chunks ``lo//per`` through
    ``(hi-1)//per``.  One flat expansion plus a stable sort by chunk
    yields every bucket in O(total flow-chunk overlaps).
    """
    if len(ranges) == 1:
        return [slice(None)]
    per = ranges[0][1] - ranges[0][0]
    c_lo = lo // per
    c_hi = (hi - 1) // per
    counts = c_hi - c_lo + 1
    total = int(counts.sum())
    flow_entry = np.repeat(np.arange(lo.size), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    chunk_entry = c_lo[flow_entry] + (np.arange(total) - offsets[flow_entry])
    order = np.argsort(chunk_entry, kind="stable")
    sorted_flows = flow_entry[order]
    bounds = np.searchsorted(
        chunk_entry[order], np.arange(len(ranges) + 1)
    )
    return [
        sorted_flows[bounds[k]: bounds[k + 1]] for k in range(len(ranges))
    ]


def _scatter_chunk(shot, starts, sizes, durations, lo, hi, delta, b0, b1):
    """Exact segment-sum of byte increments over the bin range [b0, b1).

    One row per (flow, bin) overlap, in flow order; ``np.bincount``
    accumulates rows sequentially, so every bin sums its contributions in
    the same order as the reference per-flow loop — bit-for-bit equal.
    Power shots route through :func:`repro.kernels.powershot_scatter`
    (this very expansion with the closed-form power curve);
    table-interpolated shots keep the generic path below.
    """
    a = np.maximum(lo, b0)
    b = np.minimum(hi, b1)
    if isinstance(shot, PowerShot):
        return powershot_scatter(
            starts, sizes, durations, a, b, shot.power, delta, b0, b1
        )
    sel = b > a
    volumes = np.zeros(b1 - b0)
    if not np.any(sel):
        return volumes
    counts = b[sel] - a[sel]
    total = int(counts.sum())
    flow = np.repeat(np.flatnonzero(sel), counts)
    row_start = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total) - np.repeat(row_start, counts)
    gbin = np.repeat(a[sel], counts) + within

    t = starts[flow]
    s = sizes[flow]
    d = durations[flow]
    gb = gbin.astype(np.float64)
    # Evaluate the same edge values the reference builds via
    # ``delta * arange``: delta * j is one correctly-rounded product.
    c_left = shot.cumulative(delta * gb - t, s, d)
    c_right = shot.cumulative(delta * (gb + 1.0) - t, s, d)
    return np.bincount(gbin - b0, weights=c_right - c_left, minlength=b1 - b0)


def _rect_chunk(starts, sizes, durations, delta, b0, b1, n_bins):
    """Closed-form rectangular accumulation over [b0, b1).

    A constant-rate flow contributes ``rate * delta`` to every fully
    covered bin and a partial amount to its first/last bins, so the whole
    scatter collapses to a difference-array cumulative sum plus at most
    two ``np.add.at`` corrections per flow: O(flows + bins) instead of
    O(flow-bin overlaps).  Exact up to float roundoff (all per-flow
    quantities are computed from global, chunk-independent values).
    """
    nb = b1 - b0
    volumes = np.zeros(nb)
    end = starts + durations
    sel = (starts < delta * b1) & (end > delta * b0)
    if not np.any(sel):
        return volumes
    t = starts[sel]
    e = end[sel]
    rate = sizes[sel] / durations[sel]

    jl = np.clip(np.floor(t / delta).astype(np.int64), 0, n_bins - 1)
    jr = np.clip(np.ceil(e / delta).astype(np.int64) - 1, 0, n_bins - 1)
    jr = np.maximum(jr, jl)
    single = jl == jr

    left_amount = ((jl + 1) * delta - np.maximum(t, 0.0)) * rate
    right_amount = (np.minimum(e, n_bins * delta) - jr * delta) * rate
    single_amount = (np.minimum(e, n_bins * delta) - np.maximum(t, 0.0)) * rate

    def in_chunk(j):
        return (j >= b0) & (j < b1)

    m = single & in_chunk(jl)
    np.add.at(volumes, jl[m] - b0, single_amount[m])
    m = ~single & in_chunk(jl)
    np.add.at(volumes, jl[m] - b0, left_amount[m])
    m = ~single & in_chunk(jr)
    np.add.at(volumes, jr[m] - b0, right_amount[m])

    # interior bins jl+1 .. jr-1 at full rate, restricted to the chunk
    lo_full = np.clip(jl[~single] + 1, b0, b1)
    hi_full = np.clip(jr[~single], b0, b1)
    grow = hi_full > lo_full
    if np.any(grow):
        acc = np.zeros(nb + 1)
        np.add.at(acc, lo_full[grow] - b0, rate[~single][grow])
        np.add.at(acc, hi_full[grow] - b0, -rate[~single][grow])
        volumes += np.cumsum(acc[:-1]) * delta
    return volumes


def _rect_task(task):
    """Closed-form rectangular accumulation of one chunk (picklable)."""
    starts, sizes, durations, delta, b0, b1, n_bins = task
    return _rect_chunk(starts, sizes, durations, delta, b0, b1, n_bins)


def _scatter_task(task):
    """Exact scatter of one chunk's candidate flows (picklable)."""
    shot, starts, sizes, durations, lo, hi, delta, b0, b1 = task
    return _scatter_chunk(shot, starts, sizes, durations, lo, hi, delta, b0, b1)


def _stream_accum_task(task):
    """Streamed-mode accumulation of one chunk's gathered flows."""
    shot, use_rect, delta, n_bins, b0, b1, flows = task
    if flows is None:
        return np.zeros(b1 - b0)
    f_starts, f_sizes, f_durations = flows
    if use_rect:
        return _rect_chunk(f_starts, f_sizes, f_durations, delta, b0, b1, n_bins)
    active, lo, hi = _bin_bounds(f_starts, f_durations, delta, n_bins)
    return _scatter_chunk(
        shot,
        f_starts[active],
        f_sizes[active],
        f_durations[active],
        lo,
        hi,
        delta,
        b0,
        b1,
    )


# -- splitmix64-based per-packet jitter (streamed packet generation) -------

_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix_uniform(keys: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Deterministic uniforms in [0, 1) from (flow key, packet index).

    A counter-based generator: the jitter of packet ``j`` of a flow
    depends only on the flow's sampled 64-bit key and ``j``, never on
    which chunk evaluated it — so streamed packetization is reproducible
    across chunk sizes even though flows are re-packetized per chunk.
    """
    with np.errstate(over="ignore"):
        x = keys + (index.astype(np.uint64) + np.uint64(1)) * _SM64_GAMMA
        x ^= x >> np.uint64(30)
        x *= _SM64_MIX1
        x ^= x >> np.uint64(27)
        x *= _SM64_MIX2
        x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)).astype(np.float64) * 2.0**-53


class _StreamBuffer:
    """Blocks of parallel per-flow arrays, kept while flows stay active.

    Block layout is ``(starts, sizes, durations, *extras)``.  Pruning and
    gathering preserve (cell, within-cell) order, which is what makes the
    per-bin accumulation order — and therefore the output — independent
    of the chunking.
    """

    def __init__(self) -> None:
        self._blocks: list[tuple[np.ndarray, ...]] = []

    def push(self, block: tuple[np.ndarray, ...] | None) -> None:
        if block is not None and block[0].size:
            self._blocks.append(block)

    def prune(self, t_start: float) -> None:
        """Drop flows that ended at or before ``t_start``."""
        kept = []
        for blk in self._blocks:
            mask = blk[0] + blk[2] > t_start
            if mask.all():
                kept.append(blk)
            elif mask.any():
                kept.append(tuple(a[mask] for a in blk))
        self._blocks = kept

    def gather(self, t_start: float, t_end: float):
        """Concatenate flows overlapping [t_start, t_end), or None."""
        picked = []
        for blk in self._blocks:
            mask = (blk[0] < t_end) & (blk[0] + blk[2] > t_start)
            if mask.all():
                picked.append(blk)
            elif mask.any():
                picked.append(tuple(a[mask] for a in blk))
        if not picked:
            return None
        return tuple(np.concatenate(cols) for cols in zip(*picked))


class GenerationEngine:
    """Scalable generator for section VII-C traffic (see module docs)."""

    def __init__(
        self,
        config: EngineConfig | None = None,
        *,
        chunk: float | None = None,
        workers: int | None = None,
        backend: str | None = None,
        arrival_cell: float | None = None,
        rect_fast_path: bool | None = None,
    ) -> None:
        if config is None:
            config = EngineConfig()
        overrides = {
            "chunk": chunk,
            "workers": workers,
            "backend": backend,
            "arrival_cell": arrival_cell,
            "rect_fast_path": rect_fast_path,
        }
        overrides = {k: v for k, v in overrides.items() if v is not None}
        if overrides:
            config = replace(config, **overrides)
        self.config = config

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        c = self.config
        return (
            f"GenerationEngine(chunk={c.chunk}, workers={c.workers}, "
            f"arrival_cell={c.arrival_cell:g})"
        )

    # -- scheduling helpers ---------------------------------------------

    def _chunk_bin_ranges(self, n_bins: int, delta: float):
        chunk = self.config.chunk
        if chunk is None:
            return [(0, n_bins)]
        per = max(1, int(round(chunk / delta)))
        return [
            (b0, min(b0 + per, n_bins)) for b0 in range(0, n_bins, per)
        ]

    def _chunk_time_ranges(self, duration: float):
        chunk = self.config.chunk
        if chunk is None or chunk >= duration:
            return [(0.0, duration)]
        edges = np.arange(0.0, duration, chunk)
        return [
            (float(t0), float(min(t0 + chunk, duration))) for t0 in edges
        ]

    # -- fluid rate path: compat (bit-for-bit) sampling ------------------

    def rate_series(
        self,
        arrival_rate: float,
        ensemble: FlowEnsemble,
        shot: Shot,
        duration: float,
        delta: float,
        *,
        warmup: float | None = None,
        rng=None,
        exact: bool = True,
    ) -> RateSeries:
        """Delta-averaged total rate of the shot-noise model.

        Samples all flows from one RNG stream exactly like the reference
        implementation, then accumulates them with the chunked vectorized
        scatter.  With ``exact=True`` (default) the result is bit-for-bit
        identical to :func:`repro.generation.reference_rate_series` for
        the same seed, for any ``chunk`` and ``workers``.  With
        ``exact=False`` the rectangular fast path may be used instead
        (identical up to float roundoff).
        """
        arrival_rate = check_positive("arrival_rate", arrival_rate)
        duration = check_positive("duration", duration)
        delta = check_positive("delta", delta)
        if delta > duration:
            raise ParameterError("delta must not exceed duration")
        rng = as_rng(rng)

        if warmup is None:
            warmup = _warmup_from_probe(ensemble, rng)
        warmup = max(float(warmup), 0.0)

        horizon = duration + warmup
        n_flows = rng.poisson(arrival_rate * horizon)
        if n_flows == 0:
            raise ParameterError(
                "no flows generated; increase arrival_rate or duration"
            )
        starts = rng.random(n_flows) * horizon - warmup
        sizes, flow_durations = ensemble.sample(n_flows, rng)

        n_bins = int(np.floor(duration / delta))
        volumes = self._accumulate(
            shot, starts, sizes, flow_durations, delta, n_bins, exact=exact
        )
        return RateSeries(volumes / delta, delta)

    def _accumulate(
        self, shot, starts, sizes, durations, delta, n_bins, *, exact=True
    ) -> np.ndarray:
        """Chunked, parallel bin accumulation for one flow population."""
        ranges = self._chunk_bin_ranges(n_bins, delta)
        if not exact and self.config.rect_fast_path and _is_rectangular(shot):
            run = _rect_task
            tasks = [
                (starts, sizes, durations, delta, b0, b1, n_bins)
                for b0, b1 in ranges
            ]
        else:
            active, lo, hi = _bin_bounds(starts, durations, delta, n_bins)
            a_starts = starts[active]
            a_sizes = sizes[active]
            a_durations = durations[active]
            # Bucket flows to the chunks they overlap once, so each chunk
            # task touches only its own flows (instead of rescanning all
            # n_flows per chunk).  The stable sort keeps every bucket in
            # flow order, preserving bitwise accumulation order.
            buckets = _chunk_buckets(lo, hi, ranges)
            run = _scatter_task
            tasks = [
                (
                    shot,
                    a_starts[cand],
                    a_sizes[cand],
                    a_durations[cand],
                    lo[cand],
                    hi[cand],
                    delta,
                    b0,
                    b1,
                )
                for (b0, b1), cand in zip(ranges, buckets)
            ]

        c = self.config
        with make_pool(c.backend, c.workers, retry=c.retry) as pool:
            parts = pool.map_ordered(run, tasks)
        volumes = np.zeros(n_bins)
        for (b0, b1), part in zip(ranges, parts):
            volumes[b0:b1] = part
        return volumes

    # -- fluid rate path: streamed (bounded-memory) sampling -------------

    def rate_series_streamed(
        self,
        arrival_rate: float,
        ensemble: FlowEnsemble,
        shot: Shot,
        duration: float,
        delta: float,
        *,
        warmup: float | None = None,
        seed=0,
        exact: bool = False,
    ) -> RateSeries:
        """Bounded-memory rate path for arbitrarily long horizons.

        Flows are sampled per arrival cell from ``SeedSequence`` children
        and buffered only while they can still reach an unprocessed bin,
        so peak memory is O(stationary flow population + chunk), not
        O(horizon).  Output depends only on ``(seed, arrival_cell)`` and
        the model inputs — never on ``chunk`` or ``workers`` (bitwise for
        the scatter path; up to float roundoff for the rectangular fast
        path, see :func:`_rect_chunk`).
        """
        arrival_rate = check_positive("arrival_rate", arrival_rate)
        duration = check_positive("duration", duration)
        delta = check_positive("delta", delta)
        if delta > duration:
            raise ParameterError("delta must not exceed duration")

        sampler = _CellSampler(
            arrival_rate,
            ensemble,
            duration,
            warmup,
            seed,
            self.config.arrival_cell,
        )
        n_bins = int(np.floor(duration / delta))
        ranges = self._chunk_bin_ranges(n_bins, delta)
        use_rect = (
            not exact and self.config.rect_fast_path and _is_rectangular(shot)
        )

        buffer = _StreamBuffer()
        volumes = np.zeros(n_bins)
        c = self.config
        group = c.workers
        with make_pool(c.backend, c.workers, retry=c.retry) as pool:
            for g0 in range(0, len(ranges), group):
                tasks = []
                for b0, b1 in ranges[g0: g0 + group]:
                    t_start, t_end = delta * b0, delta * b1
                    for block in sampler.cells_before(t_end):
                        buffer.push(block)
                    buffer.prune(t_start)
                    tasks.append(
                        (
                            shot,
                            use_rect,
                            delta,
                            n_bins,
                            b0,
                            b1,
                            buffer.gather(t_start, t_end),
                        )
                    )
                parts = pool.map_ordered(_stream_accum_task, tasks)
                for (_, _, _, _, b0, b1, _), part in zip(tasks, parts):
                    volumes[b0:b1] = part
        if sampler.total_flows == 0:
            raise ParameterError(
                "no flows generated; increase arrival_rate or duration"
            )
        return RateSeries(volumes / delta, delta)

    # -- packet path: compat (bit-for-bit) sampling ----------------------

    def packet_trace(
        self,
        arrival_rate: float,
        ensemble: FlowEnsemble,
        shot: Shot,
        duration: float,
        *,
        link_capacity: float = 622e6,
        address_space: AddressSpace | None = None,
        mss: int = 1460,
        header_bytes: int = 40,
        jitter: float = 0.25,
        warmup: float | None = None,
        name: str = "generated",
        rng=None,
    ) -> PacketTrace:
        """Generate a full synthetic packet trace (section VII-C).

        Sampling matches the pre-engine implementation draw for draw;
        packetization runs per chunk of flows so the per-packet expansion
        is bounded by ``chunk`` seconds of arrivals.  Because jitter
        uniforms are consumed from the same stream in the same order, the
        resulting trace is bit-for-bit identical for any chunking.
        """
        arrival_rate = check_positive("arrival_rate", arrival_rate)
        duration = check_positive("duration", duration)
        rng = as_rng(rng)
        if address_space is None:
            address_space = AddressSpace()

        if warmup is None:
            warmup = _warmup_from_probe(ensemble, rng)
        warmup = max(float(warmup), 0.0)

        n_flows = rng.poisson(arrival_rate * (duration + warmup))
        if n_flows == 0:
            raise ParameterError(
                "no flows generated; increase rate or duration"
            )
        starts = np.sort(rng.random(n_flows) * (duration + warmup) - warmup)
        sizes, durations = ensemble.sample(n_flows, rng)

        if self.config.chunk is None:
            per_group = n_flows
        else:
            per_group = max(
                1,
                int(np.ceil(n_flows * self.config.chunk / (duration + warmup))),
            )
        ts_parts, flow_parts, wire_parts = [], [], []
        for g0 in range(0, n_flows, per_group):
            g1 = min(g0 + per_group, n_flows)
            schedule = packetize_shots(
                sizes[g0:g1],
                durations[g0:g1],
                shot,
                mss=mss,
                header_bytes=header_bytes,
                jitter=jitter,
                rng=rng,
            )
            ts = starts[g0:g1][schedule.flow_index] + schedule.offset
            keep = (ts >= 0.0) & (ts < duration)
            ts_parts.append(ts[keep])
            flow_parts.append(schedule.flow_index[keep] + g0)
            wire_parts.append(schedule.wire_size[keep])

        timestamps = np.concatenate(ts_parts)
        flow_of_packet = np.concatenate(flow_parts)
        wire_sizes = np.concatenate(wire_parts)

        src, dst, sport, dport, proto = address_space.sample_endpoints(
            n_flows, rng
        )
        packets = packets_from_columns(
            timestamps,
            src[flow_of_packet],
            dst[flow_of_packet],
            sport[flow_of_packet],
            dport[flow_of_packet],
            proto[flow_of_packet],
            wire_sizes,
        )
        order = np.argsort(packets["timestamp"], kind="stable")
        return PacketTrace(
            packets[order],
            link_capacity=link_capacity,
            duration=duration,
            name=name,
        )

    # -- packet path: streamed writer ------------------------------------

    def write_packet_trace(
        self,
        path,
        arrival_rate: float,
        ensemble: FlowEnsemble,
        shot: Shot,
        duration: float,
        *,
        link_capacity: float = 622e6,
        address_space: AddressSpace | None = None,
        mss: int = 1460,
        header_bytes: int = 40,
        jitter: float = 0.25,
        warmup: float | None = None,
        seed=0,
    ) -> int:
        """Stream a generated capture to disk in bounded memory.

        Combines streamed arrival cells with the chunked packetizer and
        the back-patching :class:`~repro.trace.TraceWriter`: only the
        packets of one chunk (plus the active-flow buffer) are ever in
        memory, and chunks are written in time order so the capture is
        globally sorted.  Packet jitter uses a counter-based splitmix64
        stream keyed per flow, so the file content depends only on
        ``seed`` and ``arrival_cell``, not on ``chunk``.  Returns the
        number of packets written.
        """
        arrival_rate = check_positive("arrival_rate", arrival_rate)
        duration = check_positive("duration", duration)
        if address_space is None:
            address_space = AddressSpace()

        sampler = _CellSampler(
            arrival_rate,
            ensemble,
            duration,
            warmup,
            seed,
            self.config.arrival_cell,
            address_space=address_space,
        )
        buffer = _StreamBuffer()
        written = 0
        try:
            with TraceWriter(
                path, link_capacity=link_capacity, duration=duration
            ) as writer:
                for t_start, t_end in self._chunk_time_ranges(duration):
                    for block in sampler.cells_before(t_end):
                        buffer.push(block)
                    buffer.prune(t_start)
                    flows = buffer.gather(t_start, t_end)
                    if flows is None:
                        continue
                    chunk_packets = _packetize_window(
                        flows,
                        shot,
                        t_start,
                        t_end,
                        mss=mss,
                        header_bytes=header_bytes,
                        jitter=jitter,
                    )
                    writer.write(chunk_packets)
                    written += chunk_packets.size
                if sampler.total_flows == 0:
                    raise ParameterError(
                        "no flows generated; increase rate or duration"
                    )
        except ParameterError:
            # do not leave a stale empty capture behind (the other
            # generators raise before producing any output)
            Path(path).unlink(missing_ok=True)
            raise
        return written


class _CellSampler:
    """Streamed Poisson arrivals, one SeedSequence child per fixed cell.

    Cell ``k`` covers ``[-warmup + k * cell, ...)`` and owns every draw
    for the flows arriving in it (counts, start offsets, sizes/durations
    and — in packet mode — endpoints and jitter keys), so any consumer
    that replays the cells obtains the same flows in the same order.
    """

    def __init__(
        self,
        arrival_rate: float,
        ensemble: FlowEnsemble,
        duration: float,
        warmup: float | None,
        seed,
        cell: float,
        *,
        address_space: AddressSpace | None = None,
    ) -> None:
        root = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        probe_child = root.spawn(1)[0]
        if warmup is None:
            warmup = _warmup_from_probe(
                ensemble, np.random.default_rng(probe_child)
            )
        self.warmup = max(float(warmup), 0.0)
        self.arrival_rate = arrival_rate
        self.ensemble = ensemble
        self.cell = float(cell)
        self.address_space = address_space
        horizon = duration + self.warmup
        self.n_cells = max(1, int(np.ceil(horizon / self.cell)))
        self._seeds = root.spawn(self.n_cells)
        self._next = 0
        self._t_last = duration
        self.total_flows = 0

    def _cell_start(self, k: int) -> float:
        return -self.warmup + k * self.cell

    def _sample(self, k: int):
        rng = np.random.default_rng(self._seeds[k])
        t_lo = self._cell_start(k)
        width = min(self.cell, self._t_last - t_lo)
        n = int(rng.poisson(self.arrival_rate * width))
        self.total_flows += n
        if n == 0:
            return None
        starts = t_lo + rng.random(n) * width
        sizes, durations = self.ensemble.sample(n, rng)
        if self.address_space is None:
            return starts, sizes, durations
        src, dst, sport, dport, proto = self.address_space.sample_endpoints(
            n, rng
        )
        keys = rng.integers(
            np.iinfo(np.uint64).max, size=n, dtype=np.uint64, endpoint=True
        )
        return starts, sizes, durations, src, dst, sport, dport, proto, keys

    def cells_before(self, t_end: float):
        """Yield blocks for every unsampled cell starting before t_end."""
        while self._next < self.n_cells and self._cell_start(self._next) < t_end:
            block = self._sample(self._next)
            self._next += 1
            if block is not None:
                yield block


def _packetize_window(
    flows,
    shot: Shot,
    t_start: float,
    t_end: float,
    *,
    mss: int,
    header_bytes: int,
    jitter: float,
):
    """Packets of the given flows with timestamps in [t_start, t_end).

    Flows spanning the window are packetized in full (their schedule is a
    pure function of (S, D, key)) and filtered to the window, so chunked
    invocations partition the packet stream exactly.
    """
    starts, sizes, durations, src, dst, sport, dport, proto, keys = flows
    schedule = packetize_shots(
        sizes, durations, shot, mss=mss, header_bytes=header_bytes, jitter=0.0
    )
    offsets = schedule.offset
    if jitter > 0.0:
        counts = np.bincount(schedule.flow_index, minlength=sizes.size)
        row_start = np.concatenate(([0], np.cumsum(counts)[:-1]))
        within = np.arange(len(schedule)) - row_start[schedule.flow_index]
        gap = durations[schedule.flow_index] / counts[schedule.flow_index]
        u = _splitmix_uniform(keys[schedule.flow_index], within)
        offsets = offsets + (u - 0.5) * jitter * gap
        offsets = np.clip(offsets, 0.0, durations[schedule.flow_index])

    timestamps = starts[schedule.flow_index] + offsets
    keep = (timestamps >= t_start) & (timestamps < t_end)
    timestamps = timestamps[keep]
    flow = schedule.flow_index[keep]
    packets = packets_from_columns(
        timestamps,
        src[flow],
        dst[flow],
        sport[flow],
        dport[flow],
        proto[flow],
        schedule.wire_size[keep],
    )
    return packets[np.argsort(packets["timestamp"], kind="stable")]


_DEFAULT_ENGINE = GenerationEngine()


def default_engine() -> GenerationEngine:
    """The shared single-chunk, single-worker engine instance."""
    return _DEFAULT_ENGINE
