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
for the same seed, for every shot family.

**Chunking.**  Time is cut into fixed windows of ``chunk`` seconds
(aligned to whole bins for rate paths).  Each chunk's accumulation sees
only the rows overlapping it, so peak memory is bounded by the chunk
size instead of the horizon.  Flows spanning chunk boundaries are exact:
a flow's contribution to any bin is the increment of its cumulative
curve over that bin, wherever the flow started.  In streamed mode
(:meth:`GenerationEngine.rate_series_streamed`) arrival sampling is
chunked too: flows are drawn per fixed *arrival cell* from
``numpy.random.SeedSequence`` children, kept in a buffer only while they
can still contribute, and dropped once the horizon has passed them — so
arbitrarily long horizons run in memory proportional to the stationary
flow population, not the duration.

**Parallelism.**  Chunks cover disjoint bin ranges, so they fan out over
a :func:`repro.execution.make_pool` pool (``workers`` x ``backend``).
Sampling is either a single compat RNG stream (exact mode) or per-cell
``SeedSequence`` children keyed only by cell index, hence results are
bitwise invariant to ``workers`` and ``chunk`` for a given seed.
"""

from __future__ import annotations

import numpy as np

from .._util import as_rng, check_positive
from ..core.ensemble import FlowEnsemble
from ..core.shots import PowerShot, Shot
from ..exceptions import ParameterError
from ..execution import ExecutionSpec, RetryPolicy, make_pool
from ..kernels import powershot_scatter
from ..netsim.addresses import AddressSpace
from ..netsim.packetize import packetize_shots
from ..stats.timeseries import RateSeries
from ..trace.packet import PacketTrace, packets_from_columns

__all__ = [
    "DEFAULT_ARRIVAL_CELL",
    "GenerationEngine",
]

#: Width (seconds) of one arrival-sampling cell in streamed mode.  Part of
#: the seeding contract: changing it changes which SeedSequence child a
#: flow is drawn from, so it is an engine knob rather than a tuning default.
DEFAULT_ARRIVAL_CELL = 64.0

#: Number of (size, duration) probe samples used to size the warm-up.
_WARMUP_PROBE = 2048


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


def _scatter_task(task):
    """Exact scatter of one chunk's candidate flows (picklable)."""
    shot, starts, sizes, durations, lo, hi, delta, b0, b1 = task
    return _scatter_chunk(shot, starts, sizes, durations, lo, hi, delta, b0, b1)


def _stream_accum_task(task):
    """Streamed-mode accumulation of one chunk's gathered flows."""
    shot, delta, n_bins, b0, b1, flows = task
    if flows is None:
        return np.zeros(b1 - b0)
    f_starts, f_sizes, f_durations = flows
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


class _StreamBuffer:
    """Blocks of parallel per-flow arrays, kept while flows stay active.

    Block layout is ``(starts, sizes, durations)``.  Pruning and
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
    """Scalable generator for section VII-C traffic (see module docs).

    ``chunk`` is the processing window in seconds (``None`` processes the
    whole horizon as one chunk; peak accumulation memory scales with
    it).  ``workers`` (pool width for independent chunks), ``backend``
    and ``retry`` form the engine's
    :class:`~repro.execution.ExecutionSpec`, kept as ``execution``.
    Results never depend on ``chunk``, ``workers`` or ``backend``.
    ``arrival_cell`` is the streamed-mode sampling cell width in
    seconds: flows are drawn per cell from a dedicated ``SeedSequence``
    child, which is what makes streamed output invariant to ``chunk``
    and ``workers``.
    """

    def __init__(
        self,
        *,
        chunk: float | None = None,
        workers: int = 1,
        backend: str = "thread",
        retry: RetryPolicy | None = None,
        arrival_cell: float = DEFAULT_ARRIVAL_CELL,
    ) -> None:
        if chunk is not None:
            check_positive("chunk", chunk)
        self.chunk = chunk
        self.execution = ExecutionSpec(
            workers=workers, backend=backend, retry=retry
        )
        self.arrival_cell = check_positive("arrival_cell", arrival_cell)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GenerationEngine(chunk={self.chunk}, "
            f"workers={self.execution.workers}, "
            f"arrival_cell={self.arrival_cell:g})"
        )

    # -- scheduling helpers ---------------------------------------------

    def _chunk_bin_ranges(self, n_bins: int, delta: float):
        chunk = self.chunk
        if chunk is None:
            return [(0, n_bins)]
        per = max(1, int(round(chunk / delta)))
        return [
            (b0, min(b0 + per, n_bins)) for b0 in range(0, n_bins, per)
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
    ) -> RateSeries:
        """Delta-averaged total rate of the shot-noise model.

        The synthetic traffic a network simulator would be fed: each
        flow's bytes follow the fitted shot rather than a constant rate,
        which is what makes the generated traffic match the measured
        second-order statistics.  Each bin holds the exact bin average,
        so the series compares directly with a
        :class:`~repro.stats.timeseries.RateSeries` measured with the
        same ``delta``.

        Samples all flows from one RNG stream exactly like the reference
        implementation, then accumulates them with the chunked vectorized
        scatter.  The result is bit-for-bit identical to
        :func:`repro.generation.reference_rate_series` for the same seed,
        for any shot, ``chunk`` and ``workers``.

        Parameters
        ----------
        arrival_rate:
            Flow arrival rate ``lambda`` (flows/second).
        ensemble:
            Joint (size, duration) law flows are drawn from.
        shot:
            Rate profile applied to every flow.
        duration:
            Length of the generated path (seconds).
        delta:
            Averaging bin (seconds); the result has ``duration/delta``
            samples.
        warmup:
            Extra lead-in time so the process is stationary at t=0.
            Defaults to a high quantile of the sampled flow durations.
        rng:
            Seed or Generator.
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
            shot, starts, sizes, flow_durations, delta, n_bins
        )
        return RateSeries(volumes / delta, delta)

    def _accumulate(
        self, shot, starts, sizes, durations, delta, n_bins
    ) -> np.ndarray:
        """Chunked, parallel bin accumulation for one flow population."""
        ranges = self._chunk_bin_ranges(n_bins, delta)
        active, lo, hi = _bin_bounds(starts, durations, delta, n_bins)
        a_starts = starts[active]
        a_sizes = sizes[active]
        a_durations = durations[active]
        # Bucket flows to the chunks they overlap once, so each chunk
        # task touches only its own flows (instead of rescanning all
        # n_flows per chunk).  The stable sort keeps every bucket in
        # flow order, preserving bitwise accumulation order.
        buckets = _chunk_buckets(lo, hi, ranges)
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

        c = self.execution
        with make_pool(c.backend, c.workers, retry=c.retry) as pool:
            parts = pool.map_ordered(_scatter_task, tasks)
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
    ) -> RateSeries:
        """Bounded-memory rate path for arbitrarily long horizons.

        Flows are sampled per arrival cell from ``SeedSequence`` children
        and buffered only while they can still reach an unprocessed bin,
        so peak memory is O(stationary flow population + chunk), not
        O(horizon).  Output depends only on ``(seed, arrival_cell)`` and
        the model inputs — never, not even in the last bit, on ``chunk``
        or ``workers``.
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
            self.arrival_cell,
        )
        n_bins = int(np.floor(duration / delta))
        ranges = self._chunk_bin_ranges(n_bins, delta)

        buffer = _StreamBuffer()
        volumes = np.zeros(n_bins)
        c = self.execution
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
                            delta,
                            n_bins,
                            b0,
                            b1,
                            buffer.gather(t_start, t_end),
                        )
                    )
                parts = pool.map_ordered(_stream_accum_task, tasks)
                for (_, _, _, b0, b1, _), part in zip(tasks, parts):
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

        Flows arrive as Poisson, draw (S, D) from ``ensemble`` and send
        their packets along ``shot``.  Unlike :mod:`repro.netsim.link`,
        which simulates TCP dynamics the model does not know, this
        generator *is* the model: it feeds simulators traffic with
        prescribed statistics.  ``warmup`` seconds of pre-capture
        arrivals put the process in steady state at t = 0 (default: the
        99th percentile of sampled durations), so the generated mean rate
        matches the model's; flows that would extend past ``duration``
        are truncated at the capture end, like a real trace.  Captures
        too long to hold in memory stream from
        :class:`~repro.synthesis.StreamingSynthesis` instead.

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

        if self.chunk is None:
            per_group = n_flows
        else:
            per_group = max(
                1,
                int(np.ceil(n_flows * self.chunk / (duration + warmup))),
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


class _CellSampler:
    """Streamed Poisson arrivals, one SeedSequence child per fixed cell.

    Cell ``k`` covers ``[-warmup + k * cell, ...)`` and owns every draw
    for the flows arriving in it (counts, start offsets, sizes and
    durations), so any consumer that replays the cells obtains the same
    flows in the same order.
    """

    def __init__(
        self,
        arrival_rate: float,
        ensemble: FlowEnsemble,
        duration: float,
        warmup: float | None,
        seed,
        cell: float,
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
        return starts, sizes, durations

    def cells_before(self, t_end: float):
        """Yield blocks for every unsampled cell starting before t_end."""
        while self._next < self.n_cells and self._cell_start(self._next) < t_end:
            block = self._sample(self._next)
            self._next += 1
            if block is not None:
                yield block
