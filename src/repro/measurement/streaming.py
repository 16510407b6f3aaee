"""Chunked flow accounting with an open-flow carry table.

:class:`StreamingMeasurement` is the library's flow accountant (every
front door, :func:`~repro.flows.exporter.export_flows` included, runs
it): it consumes a time-ordered packet trace chunk by chunk and produces
exactly the artifacts of the frozen in-memory section III/V oracle — the
:class:`~repro.flows.records.FlowSet` of
:func:`~repro.measurement.reference.reference_export_flows` and the
single-packet-filtered :class:`~repro.stats.timeseries.RateSeries`
``RateSeries.from_packets(packets[packet_map >= 0], delta)`` — **bit
for bit**, for any chunking and any shard count.  Packets with a NaN or
infinite timestamp are rejected before any binning.

Three properties make exact streaming possible:

* **Exact integer arithmetic.**  Packet sizes are integers, so per-flow
  byte sums and per-bin byte volumes are integer-valued float64 values
  far below 2**53.  Integer sums are associative in float64, which frees
  the accumulation from the ordering constraints the generation engine
  had to engineer around: chunk partials and cross-shard merges reproduce
  the monolithic result bitwise.
* **An open-flow carry table.**  Flows are split at idle gaps
  ``> timeout`` exactly like the exporter; a flow whose last packet falls
  within ``timeout`` of the chunk boundary stays *open* in a carry table
  (key words, start, last seen, byte/packet totals) and is either
  continued by the next chunk (boundary gap ``<= timeout``), closed when
  its key reappears later, or closed as *stale* once the stream has
  advanced more than ``timeout`` past it — so carry size tracks the
  active-flow population, not the trace length.
* **Deferred discard accounting.**  The rate series must exclude packets
  of discarded flows (single-packet / zero-duration / ``< min_packets``),
  but a flow's fate is unknown while it is open.  All packets are added
  to the bin accumulator immediately; an open flow that is not yet
  provably kept carries a tiny compressed ``(bin, bytes)`` pending list
  (at most ``max(1, min_packets - 1)`` entries — an unresolved flow has
  fewer than ``min_packets`` packets or a single distinct timestamp), and
  the pending amounts are subtracted if the flow closes discarded.

Within a shard, packets are grouped, and the carry table kept, in the
order of one 64-bit mix of the packed key words (:func:`_key_mix`): the
packets go through one vectorised sort of the mix's leading bits and
their arrival rank, packed into one uint64.  Keys are compared on their
exact words throughout; where two keys share those leading bits, the
grouping falls back to the exact ``(mix, hi, lo)`` order.  The key
space is sharded by a pure function of the packed key words, so
independent shards can be processed by a worker pool; shard results
merge exactly (integer arithmetic again) and the final flow ordering —
by key, then start time, the exporter's order — is restored with one
flow-level stable sort by key when the measurement is sealed (a key's
flows close in start order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import FlowExportError
from ..execution import stage_timer
from ..flows.exporter import DEFAULT_TIMEOUT
from ..flows.keys import (
    _lead_sort,
    pack_packet_keys,
    packed_key_order,
    unpack_packet_keys,
)
from ..flows.records import FlowSet
from ..stats.timeseries import RateSeries
from ..trace.packet import PACKET_DTYPE, PacketTrace

__all__ = ["StreamingMeasurement", "process_shard", "reject_non_finite"]

_EMPTY_I64 = np.zeros(0, dtype=np.int64)
_EMPTY_U64 = np.zeros(0, dtype=np.uint64)
_EMPTY_F64 = np.zeros(0, dtype=np.float64)

#: Sentinel for "no accumulator bin" (out-of-range packet or empty slot).
_NO_BIN = np.int64(-1)

#: The closed-flow columns ``(starts, ends, sizes, counts, hi, lo)`` of
#: a measurement no flow closed in.
_NO_FLOWS = (_EMPTY_F64, _EMPTY_F64, _EMPTY_F64, _EMPTY_I64, _EMPTY_U64,
             _EMPTY_U64)


def reject_non_finite(timestamps, offset: int = 0) -> None:
    """Raise :class:`FlowExportError` naming the first non-finite time.

    ``offset`` is the stream position of ``timestamps[0]``.  A NaN or
    infinite timestamp has no flow, gap or bin, so it is an input error
    rather than a packet to account.
    """
    bad = np.flatnonzero(~np.isfinite(timestamps))
    if bad.size:
        i = int(bad[0])
        raise FlowExportError(
            f"packet {offset + i} has a non-finite timestamp "
            f"({float(timestamps[i])!r}); flow accounting needs finite "
            "packet times"
        )


#: Odd multiplier of :func:`_key_mix` (2**64 over the golden ratio).
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _key_mix(hi, lo):
    """One uint64 per packed key, ``(hi ^ lo·K)·K`` (wrapping): the grouping key.

    Equal keys share a mix; two different keys may share one too (a
    collision), which every grouping detects on the exact words.  The
    outer product by the odd ``K`` is a bijection, so it adds no
    collision; it carries differences in the low bits (neighbouring
    addresses) up into the leading bits the chunk sort orders by.
    """
    mix = hi ^ (lo * _MIX)
    mix *= _MIX
    return mix


def _key_change(hi, lo):
    """True where a row's exact key differs from the row before."""
    return np.concatenate([[True], (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])])


def _match_carry(state, mix, hi, lo):
    """Indices ``(ci, qi)`` of carried keys equal to the unique query keys.

    The queries come in mix order.  A table with distinct mixes is
    searched by mix and each hit checked on the exact words; a table
    holding a mix collision matches by one exact ``(hi, lo)`` sort.
    """
    nc = state.mix.size
    if nc == 0 or mix.size == 0:
        return _EMPTY_I64, _EMPTY_I64
    if np.any(state.mix[1:] == state.mix[:-1]):
        cat_hi = np.concatenate([state.hi, hi])
        cat_lo = np.concatenate([state.lo, lo])
        order = packed_key_order(cat_hi, cat_lo)
        eq = ~_key_change(cat_hi[order], cat_lo[order])[1:]
        at = np.flatnonzero(eq)
        # the sort is stable and carried keys precede the queries in the
        # concatenation, so of an equal pair the first index is carried
        return order[at].astype(np.int64), (order[at + 1] - nc).astype(np.int64)
    pos = np.minimum(np.searchsorted(state.mix, mix), nc - 1)
    hit = np.flatnonzero(
        (state.mix[pos] == mix) & (state.hi[pos] == hi) & (state.lo[pos] == lo)
    )
    return pos[hit], hit


#: The carry table's columns, one row per open flow.
_CARRY = (
    "mix", "hi", "lo", "start", "last", "size", "count",
    "pend_n", "pend_bin", "pend_byte",
)


class _ShardState:
    """Open-flow carry table of one key shard.

    Rows are in :func:`_key_mix` order (keys that share a mix in any
    order between them; lookups handle such a collision exactly).
    """

    __slots__ = _CARRY

    def __init__(self, pend_width: int) -> None:
        self.mix = _EMPTY_U64
        self.hi = _EMPTY_U64
        self.lo = _EMPTY_U64
        self.start = _EMPTY_F64
        self.last = _EMPTY_F64
        self.size = _EMPTY_F64
        self.count = _EMPTY_I64
        self.pend_n = _EMPTY_I64
        self.pend_bin = np.zeros((0, pend_width), dtype=np.int64)
        self.pend_byte = np.zeros((0, pend_width), dtype=np.float64)


class _ChunkResult:
    """Closed flows and accumulator corrections of one shard-chunk step."""

    __slots__ = ("flows", "sub_bins", "sub_bytes", "discarded_packets")

    def __init__(self) -> None:
        self.flows: list[tuple] = []
        self.sub_bins: list[np.ndarray] = []
        self.sub_bytes: list[np.ndarray] = []
        self.discarded_packets = 0


def _compress_pairs(bins2, bytes2, width_out):
    """Row-wise merge of ``(bin, bytes)`` slots, summing duplicate bins.

    ``bins2`` is ``(m, w)`` with :data:`_NO_BIN` marking empty slots; the
    result has at most ``width_out`` populated slots per row (guaranteed
    by the pending-size invariant, asserted here).
    """
    m, w = bins2.shape
    sentinel = np.iinfo(np.int64).max
    key = np.where(bins2 < 0, sentinel, bins2)
    order = np.argsort(key, axis=1, kind="stable")
    kb = np.take_along_axis(key, order, axis=1)
    vb = np.take_along_axis(bytes2, order, axis=1)
    out_bin = np.full((m, width_out), _NO_BIN, dtype=np.int64)
    out_byte = np.zeros((m, width_out), dtype=np.float64)
    col = np.full(m, -1, dtype=np.int64)
    for j in range(w):
        kj = kb[:, j]
        valid = kj != sentinel
        if not valid.any():
            break
        new_run = valid if j == 0 else valid & (kj != kb[:, j - 1])
        col = col + new_run.astype(np.int64)
        rows = np.flatnonzero(valid)
        cols = col[rows]
        if cols.size and int(cols.max()) >= width_out:
            raise FlowExportError(
                "internal error: pending byte map overflowed its bound"
            )
        out_bin[rows, cols] = kj[rows]
        # duplicate bins accumulate into the run's first slot
        np.add.at(out_byte, (rows, cols), vb[:, j][rows])
    return out_bin, out_byte, col + 1


def _pend_pairs(result: _ChunkResult, pend_bin, pend_byte, pend_n):
    """Queue the valid pending pairs of discarded flows for subtraction."""
    if pend_bin.size == 0:
        return
    width = pend_bin.shape[1]
    valid = (np.arange(width)[None, :] < pend_n[:, None]) & (pend_bin >= 0)
    if valid.any():
        result.sub_bins.append(pend_bin[valid])
        result.sub_bytes.append(pend_byte[valid])


@dataclass(frozen=True)
class _ShardParams:
    """The per-shard constants of one measurement (picklable)."""

    timeout: float
    min_packets: int
    pend_width: int
    track: bool  # whether a rate series is being accumulated


def _kept(params: _ShardParams, counts, starts, ends):
    return (counts >= params.min_packets) & (ends > starts)


def _close_carry(params, state: _ShardState, idx, result: _ChunkResult):
    """Emit carried flows ``idx`` (closed), with discard corrections."""
    if idx.size == 0:
        return
    kept = _kept(params, state.count[idx], state.start[idx], state.last[idx])
    k = idx[kept]
    if k.size:
        result.flows.append((
            state.start[k], state.last[k], state.size[k],
            state.count[k], state.hi[k], state.lo[k],
        ))
    d = idx[~kept]
    if d.size:
        result.discarded_packets += int(state.count[d].sum())
        if params.track:
            _pend_pairs(
                result, state.pend_bin[d], state.pend_byte[d],
                state.pend_n[d],
            )


def _rebuild_carry(state: _ShardState, keep_mask, new_rows=None):
    """Replace the carry table with kept rows + the chunk's open flows.

    ``new_rows`` holds the :data:`_CARRY` columns of the open flows, in
    mix order like the kept rows: a stable merge of the two runs (kept
    rows first among equal mixes) keeps the table in mix order.  Both
    runs go to their merged places by one ``searchsorted`` each.
    """
    kept = np.flatnonzero(keep_mask)
    if new_rows is None:
        for name in _CARRY:
            setattr(state, name, getattr(state, name)[kept])
        return
    kept_mix, new_mix = state.mix[kept], new_rows[0]
    kept_at = np.searchsorted(new_mix, kept_mix, side="left")
    kept_at += np.arange(kept.size)
    new_at = np.searchsorted(kept_mix, new_mix, side="right")
    new_at += np.arange(new_mix.size)
    total = kept.size + new_mix.size
    for name, new in zip(_CARRY, new_rows):
        column = np.empty((total, *new.shape[1:]), dtype=new.dtype)
        column[kept_at] = getattr(state, name)[kept]
        column[new_at] = new
        setattr(state, name, column)


def process_shard(task):  # noqa: E741
    """One shard-chunk step: ``task -> (updated state, result)``.

    A pure function of the task tuple (the state is mutated and
    returned), so shards can run on any backend — with the process
    backend the worker operates on its own copy and the parent adopts
    the returned table.
    """
    params, state, t, s, h, l, b, t_max, time_sorted = task
    result = _ChunkResult()
    timeout = params.timeout
    track = params.track
    width = params.pend_width

    if t.size == 0:
        # no packets for this shard, but time still advanced: close
        # carried flows the stream has moved more than timeout past
        stale = np.flatnonzero(state.last < t_max - timeout)
        if stale.size:
            _close_carry(params, state, stale, result)
            keep = np.ones(state.hi.size, dtype=bool)
            keep[stale] = False
            _rebuild_carry(state, keep)
        return state, result

    # group each key's packets, in arrival order, by the lead of the key
    # mix: one sort of (lead, arrival rank)
    mix = _key_mix(h, l)
    arrival = None if time_sorted else np.argsort(t, kind="stable")
    order, lead = _lead_sort(mix if arrival is None else mix[arrival])
    if arrival is not None:
        order = arrival[order]
    h, l = h[order], l[order]  # noqa: E741
    mix = _key_mix(h, l)  # cheaper than a third gather
    key_change = _key_change(h, l)
    if np.any(key_change[1:] & (lead[1:] == lead[:-1])):
        # two keys share a lead: regroup by (mix, hi, lo); the sort is
        # stable, so each key stays in arrival order, and distinct
        # mixes keep the order their leads gave
        fix = packed_key_order(mix, h, l)
        order, mix, h, l = order[fix], mix[fix], h[fix], l[fix]  # noqa: E741
        key_change = _key_change(h, l)
    t = t[order]
    s = s[order]
    if track:
        b = b[order]

    gap_split = np.concatenate([[False], (t[1:] - t[:-1]) > timeout])
    new_seg = key_change | gap_split
    seg_first = np.flatnonzero(new_seg)
    nseg = seg_first.size
    seg_last = np.concatenate([seg_first[1:] - 1, [t.size - 1]])
    seg_t0 = t[seg_first]
    seg_t1 = t[seg_last]
    seg_size = np.add.reduceat(s, seg_first)
    seg_count = seg_last - seg_first + 1
    seg_mix = mix[seg_first]
    seg_hi = h[seg_first]
    seg_lo = l[seg_first]
    first_of_key = key_change[seg_first]
    last_of_key = np.concatenate([first_of_key[1:], [True]])

    # effective per-segment flow values (merged with carry where the
    # boundary gap is within the timeout)
    eff_start = seg_t0.copy()
    eff_size = seg_size.copy()
    eff_count = seg_count.copy()
    inh_pend_n = np.zeros(nseg, dtype=np.int64)
    inh_pend_bin = np.full((nseg, width), _NO_BIN, dtype=np.int64)
    inh_pend_byte = np.zeros((nseg, width), dtype=np.float64)

    kf_idx = np.flatnonzero(first_of_key)
    ci, si = _match_carry(
        state, seg_mix[kf_idx], seg_hi[kf_idx], seg_lo[kf_idx]
    )
    seg_m = kf_idx[si]
    cont = seg_t0[seg_m] - state.last[ci] <= timeout
    # carried flow continued by this chunk: fold it into the first
    # segment of its key run
    mci = ci[cont]
    msi = seg_m[cont]
    eff_start[msi] = state.start[mci]
    eff_size[msi] += state.size[mci]
    eff_count[msi] += state.count[mci]
    if track:
        inh_pend_n[msi] = state.pend_n[mci]
        inh_pend_bin[msi] = state.pend_bin[mci]
        inh_pend_byte[msi] = state.pend_byte[mci]
    # carried flow whose key reappears only after the timeout: closed
    _close_carry(params, state, ci[~cont], result)

    carry_keep = np.ones(state.hi.size, dtype=bool)
    carry_keep[ci] = False  # consumed (merged) or closed above
    # stale carries: the stream advanced > timeout past their last
    # packet, so nothing can continue them — close now
    stale = np.flatnonzero(carry_keep & (state.last < t_max - timeout))
    if stale.size:
        _close_carry(params, state, stale, result)
        carry_keep[stale] = False

    kept_seg = _kept(params, eff_count, eff_start, seg_t1)

    # segments closed inside the chunk (a later segment of the same
    # key follows after a gap > timeout)
    closed = ~last_of_key
    ck = np.flatnonzero(closed & kept_seg)
    if ck.size:
        result.flows.append((
            eff_start[ck], seg_t1[ck], eff_size[ck],
            eff_count[ck], seg_hi[ck], seg_lo[ck],
        ))
    cd = np.flatnonzero(closed & ~kept_seg)
    if cd.size:
        result.discarded_packets += int(eff_count[cd].sum())
        if track:
            # in-chunk packets of the discarded segments ...
            pk = np.repeat(closed & ~kept_seg, seg_count)
            bb = b[pk]
            ok = bb >= 0
            if ok.any():
                result.sub_bins.append(bb[ok])
                result.sub_bytes.append(s[pk][ok])
            # ... plus whatever a merged carry had pending
            _pend_pairs(
                result, inh_pend_bin[cd], inh_pend_byte[cd],
                inh_pend_n[cd],
            )

    # the last segment of each key stays open in the carry table
    open_idx = np.flatnonzero(last_of_key)
    open_resolved = kept_seg[open_idx]
    pend_n = np.zeros(open_idx.size, dtype=np.int64)
    pend_bin = np.full((open_idx.size, width), _NO_BIN, dtype=np.int64)
    pend_byte = np.zeros((open_idx.size, width), dtype=np.float64)
    if track and not open_resolved.all():
        u_rel = np.flatnonzero(~open_resolved)
        u_seg = open_idx[u_rel]
        comb_bin = np.full(
            (u_rel.size, 2 * width), _NO_BIN, dtype=np.int64
        )
        comb_byte = np.zeros((u_rel.size, 2 * width), dtype=np.float64)
        comb_bin[:, :width] = inh_pend_bin[u_seg]
        comb_byte[:, :width] = inh_pend_byte[u_seg]
        # compressed (bin, bytes) runs of the unresolved segments'
        # in-chunk packets (same-bin packets are adjacent: packets are
        # time-sorted within a segment)
        lengths = seg_last[u_seg] - seg_first[u_seg] + 1
        total = int(lengths.sum())
        offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        owner = np.repeat(np.arange(u_seg.size), lengths)
        pidx = np.repeat(seg_first[u_seg], lengths) + (
            np.arange(total) - np.repeat(offsets, lengths)
        )
        pb = b[pidx]
        run_new = np.concatenate(
            [[True], (owner[1:] != owner[:-1]) | (pb[1:] != pb[:-1])]
        )
        run_id = np.cumsum(run_new) - 1
        run_first = np.flatnonzero(run_new)
        run_owner = owner[run_first]
        run_bin = pb[run_first]
        run_byte = np.bincount(run_id, weights=s[pidx])
        owner_first = np.searchsorted(run_owner, np.arange(u_seg.size))
        slot = np.arange(run_owner.size) - owner_first[run_owner]
        if slot.size and int(slot.max()) >= width:
            raise FlowExportError(
                "internal error: unresolved segment produced more "
                "pending bins than its packet budget allows"
            )
        comb_bin[run_owner, width + slot] = run_bin
        comb_byte[run_owner, width + slot] = run_byte
        pend_bin[u_rel], pend_byte[u_rel], pend_n[u_rel] = (
            _compress_pairs(comb_bin, comb_byte, width)
        )

    _rebuild_carry(
        state,
        carry_keep,
        (
            seg_mix[open_idx], seg_hi[open_idx], seg_lo[open_idx],
            eff_start[open_idx], seg_t1[open_idx], eff_size[open_idx],
            eff_count[open_idx], pend_n, pend_bin, pend_byte,
        ),
    )
    return state, result


class StreamingMeasurement:
    """Streaming flow accounting + rate measurement over packet chunks.

    Parameters mirror :func:`~repro.flows.exporter.export_flows`; pass
    ``delta`` and ``duration`` to additionally accumulate the
    single-packet-filtered rate series (``delta=None`` accounts flows
    only).  ``shards`` splits the key space into independently processed
    carry tables; results are invariant to it.  :meth:`update` runs the
    shards in the calling thread; a driver with a pool maps
    :meth:`shard_tasks` on it instead (:class:`MeasurementEngine` with
    ``shards = execution.workers``, and the network engine).

    Chunks must be time-ordered across calls (a valid capture); packets
    *within* a chunk may be in any order.
    """

    def __init__(
        self,
        *,
        key: str = "five_tuple",
        timeout: float = DEFAULT_TIMEOUT,
        min_packets: int = 2,
        prefix_length: int = 24,
        delta: float | None = None,
        duration: float | None = None,
        shards: int = 1,
        keep_raw_series: bool = False,
    ) -> None:
        if key not in ("five_tuple", "prefix"):
            raise FlowExportError(
                f"unknown flow key {key!r}; use 'five_tuple' or 'prefix'"
            )
        if timeout <= 0:
            raise FlowExportError(f"timeout must be > 0, got {timeout}")
        if min_packets < 1:
            raise FlowExportError(
                f"min_packets must be >= 1, got {min_packets}"
            )
        self.key = key
        self.timeout = float(timeout)
        self.min_packets = int(min_packets)
        self.prefix_length = int(prefix_length)
        self.delta = None
        self.n_bins = 0
        if delta is not None:
            if delta <= 0:
                raise FlowExportError(f"delta must be > 0, got {delta}")
            if duration is None:
                raise FlowExportError(
                    "a rate series needs an explicit duration; pass "
                    "duration=... alongside delta"
                )
            self.delta = float(delta)
            self.n_bins = int(np.floor(duration / self.delta))
            if self.n_bins < 1:
                raise FlowExportError(
                    f"duration {duration} shorter than one bin of {delta}s"
                )
        if keep_raw_series and self.delta is None:
            raise FlowExportError(
                "keep_raw_series needs a rate series; pass delta (and "
                "duration) alongside it"
            )
        self._pend_width = max(1, self.min_packets - 1)
        self._params = _ShardParams(
            timeout=self.timeout,
            min_packets=self.min_packets,
            pend_width=self._pend_width,
            track=self.delta is not None,
        )
        self._states = [_ShardState(self._pend_width) for _ in range(shards)]
        self._volumes = np.zeros(self.n_bins)
        # pre-discard volumes: what RateSeries.from_packets with no mask
        # sees — a router watching the raw link rate (anomaly detection)
        self._raw_volumes = np.zeros(self.n_bins) if keep_raw_series else None
        self.raw_series: RateSeries | None = None
        # closed-flow column parts; one part, in the exporter's order,
        # once sealed
        self._flows: list[tuple] = []
        self._discarded = 0
        self._prev_max = -np.inf
        self._finalized = False
        self.packet_count = 0
        self.total_bytes = 0.0

    # -- public API -------------------------------------------------------

    def update(self, packets) -> None:
        """Fold one time-ordered packet chunk in the calling thread."""
        with stage_timer("measurement.shards"):
            results = [process_shard(t) for t in self.shard_tasks(packets)]
        self.apply_shards(results)

    def shard_tasks(self, packets) -> list[tuple]:
        """Bin one time-ordered chunk; return its per-shard tasks.

        The first half of :meth:`update`, for a driver that runs the
        shard steps on a pool (the measurement and network engines): map
        the tasks with :func:`process_shard`, then pass the
        results, in shard order, to :meth:`apply_shards` before the next
        chunk.  An empty chunk yields no tasks.
        """
        if self._finalized:
            raise FlowExportError("measurement already finalized")
        if isinstance(packets, PacketTrace):
            packets = packets.packets
        packets = np.asarray(packets)
        if packets.dtype != PACKET_DTYPE:
            raise FlowExportError(
                f"expected PACKET_DTYPE packets, got dtype {packets.dtype}"
            )
        if packets.size == 0:
            return []
        # contiguous: the shard steps gather it, and gathers from the
        # strided field of the 23-byte records are several times slower
        ts = np.ascontiguousarray(packets["timestamp"], dtype=np.float64)
        t_min = float(ts.min())
        t_max = float(ts.max())
        if not (np.isfinite(t_min) and np.isfinite(t_max)):
            reject_non_finite(ts, self.packet_count)
        if t_min < self._prev_max:
            raise FlowExportError(
                "chunks must be time-ordered: got a packet at "
                f"{t_min:g}s after seeing {self._prev_max:g}s; streaming "
                "flow accounting needs a time-sorted capture"
            )
        self._prev_max = t_max
        self.packet_count += packets.size

        hi, lo = pack_packet_keys(packets, self.key, self.prefix_length)
        sizes = packets["size"].astype(np.float64)
        self.total_bytes += float(sizes.sum())
        bins = None
        if self.delta is not None:
            bins = np.floor(ts / self.delta).astype(np.int64)
            in_range = (bins >= 0) & (bins < self.n_bins)
            if in_range.any():
                increment = np.bincount(
                    bins[in_range], weights=sizes[in_range],
                    minlength=self.n_bins,
                )
                self._volumes += increment
                if self._raw_volumes is not None:
                    # raw accumulation: same packets, no later discard
                    # subtraction — equals the unmasked from_packets bins
                    self._raw_volumes += increment
            bins = np.where(in_range, bins, _NO_BIN)

        # a time-sorted chunk lets the shard sort drop its timestamp pass
        # entirely (stability preserves arrival order within a key); shard
        # subsets of a sorted chunk stay sorted
        time_sorted = bool(np.all(ts[1:] >= ts[:-1]))
        n_shards = len(self._states)
        params = self._params
        if n_shards == 1:
            tasks = [
                (params, self._states[0], ts, sizes, hi, lo, bins, t_max,
                 time_sorted)
            ]
        else:
            shard_of = (hi ^ lo) % np.uint64(n_shards)
            tasks = []
            for s in range(n_shards):
                mask = shard_of == s
                tasks.append((
                    params,
                    self._states[s],
                    ts[mask],
                    sizes[mask],
                    hi[mask],
                    lo[mask],
                    None if bins is None else bins[mask],
                    t_max,
                    time_sorted,
                ))
        return tasks

    def apply_shards(self, results) -> None:
        """Adopt the :func:`process_shard` results of one chunk's tasks."""
        for s, (state, result) in enumerate(results):
            self._states[s] = state
            self._apply(result)

    def seal(self) -> None:
        """Close all open flows; keep the closed parts for :meth:`assemble`.

        The first half of :meth:`finalize`, for a driver that assembles
        the artifacts of several measurements at once (the network
        engine: one measurement per class of packets, a link combining
        its classes).  Sealing puts the closed flows into the exporter's
        (key, start) order once, so every :meth:`assemble` that takes
        this measurement — one per link the class feeds — starts from
        sorted flows; the order survives pickling.  A sealed measurement
        accepts no more chunks.
        """
        if self._finalized:
            raise FlowExportError("measurement already finalized")
        self._finalized = True
        for state in self._states:
            result = _ChunkResult()
            _close_carry(
                self._params, state,
                np.arange(state.hi.size, dtype=np.int64), result,
            )
            self._apply(result)
        # every carried flow is closed; a sealed measurement travels to
        # each task that assembles it, so it carries no stale tables
        self._states = []
        with stage_timer("measurement.assemble"):
            columns = [
                np.concatenate(cols)
                for cols in zip(*(self._flows or [_NO_FLOWS]))
            ]
            # the exporter's canonical order: key ascending, then start
            # time — sorted once here, however many links share the
            # class.  The key alone suffices: a key's flows never
            # overlap, and each is closed (appended) before the next of
            # its key, so they arrive in start order and a stable sort
            # keeps it.
            order = packed_key_order(columns[4], columns[5])
            self._flows = [tuple(col[order] for col in columns)]

    def finalize(self) -> tuple[FlowSet, RateSeries | None]:
        """Close all open flows and assemble the final artifacts."""
        self.seal()
        flows, series, self.raw_series = self.assemble([self])
        # the closed-flow parts now live in ``flows``; a finalized
        # measurement keeps no second copy
        self._flows = []
        return flows, series

    @staticmethod
    def assemble(parts) -> tuple[FlowSet, RateSeries | None, RateSeries | None]:
        """``(flows, series, raw_series)`` of sealed measurements combined.

        ``parts`` share their parameters and see disjoint flow keys (the
        network engine's classes on one link), so the combined FlowSet
        is the union of theirs and the bin volumes and discard counts
        add up — integer float64 sums, exact in any order.  Each part's
        flows are already in the exporter's (key, start) order since
        :meth:`seal`: one part needs no sort, and several need a stable
        sort by key alone, which keeps each key's flows — all from one
        part — in their start order.  The parts are left as they are.
        """
        if not all(part._finalized and part._flows for part in parts):
            raise FlowExportError(
                "assemble needs sealed measurements, not open or "
                "finalized ones"
            )
        first = parts[0]
        with stage_timer("measurement.assemble"):
            starts, ends, sizes, counts, hi, lo = (
                np.concatenate(cols)
                for cols in zip(*(part._flows[0] for part in parts))
            )
            if len(parts) > 1:
                order = packed_key_order(hi, lo)
                starts, ends, sizes, counts, hi, lo = (
                    col[order] for col in (starts, ends, sizes, counts, hi, lo)
                )
            flows = FlowSet(
                starts,
                ends,
                sizes,
                counts.astype(np.int64, copy=False),
                key_kind=first.key,
                keys=unpack_packet_keys(
                    hi, lo, first.key, PACKET_DTYPE, first.prefix_length,
                ),
                prefix_length=first.prefix_length,
                timeout=first.timeout,
                discarded_packets=sum(part._discarded for part in parts),
            )
        series = raw_series = None
        if first.delta is not None:
            series = RateSeries(
                sum(part._volumes for part in parts) / first.delta,
                first.delta,
            )
            if first._raw_volumes is not None:
                raw_series = RateSeries(
                    sum(part._raw_volumes for part in parts) / first.delta,
                    first.delta,
                )
        return flows, series, raw_series

    # -- internals --------------------------------------------------------

    def _apply(self, result: _ChunkResult) -> None:
        with stage_timer("measurement.apply"):
            self._flows.extend(result.flows)
            self._discarded += result.discarded_packets
            for bins_, bytes_ in zip(result.sub_bins, result.sub_bytes):
                self._volumes -= np.bincount(
                    bins_, weights=bytes_, minlength=self.n_bins
                )
