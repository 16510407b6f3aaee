"""Per-cell flow synthesis — the unit of work of the synthesis engine.

The arrival timeline ``[-warmup, duration)`` is partitioned into fixed
cells of :data:`~repro.synthesis.engine.DEFAULT_SYNTHESIS_CELL` seconds.
Each cell owns every random draw for the flows arriving in it — start
times, sizes, endpoints, TCP round-trip times and per-round jitter, CBR
rates and packetization dither — taken from one dedicated
``numpy.random.SeedSequence`` child in a fixed, documented order.  Any
consumer replaying the cells therefore obtains the same flows and the
same packets, which is what makes the engine's output independent of
``chunk`` and ``workers`` (they only change *when* cells are evaluated,
never *what* a cell contains).

TCP flows use a closed-form round table instead of the round-synchronous
loop of :func:`repro.netsim.tcp.simulate_tcp_flows`: the window sequence
``w_r`` of the round model is the same deterministic sequence for every
flow (slow-start doubling to ``ssthresh``, then +1 per round, capped at
``max_window``), so each flow's number of rounds and per-round packet
counts follow from one ``searchsorted`` against the cumulative window
curve, and the per-round RTT jitter is drawn as a single vectorized
lognormal block.  Rounds that fall entirely outside the capture window
are pruned *before* the per-packet expansion, so warm-up lead-ins and
end-of-capture truncation cost round-table work, not packet work.

A cell block carries its packets as three parallel, time-sorted columns:
``timestamp`` (float64) plus two packed ``uint64`` payload words
(``src << 32 | dst`` and ``sport << 48 | dport << 32 | proto << 16 |
wire``).  Packing keeps the k-way merge down to three gathers per packet
instead of seven and avoids numpy's slow element-wise copy path for the
23-byte ``PACKET_DTYPE`` records until the final assembly.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .._util import check_positive
from ..exceptions import ParameterError
from ..flows.keys import PROTO_TCP
from ..netsim.addresses import AddressSpace
from ..netsim.arrivals import ArrivalProcess
from ..netsim.packetize import packetize_shots
from ..netsim.tcp import TcpParameters, _packet_counts

__all__ = [
    "DEFAULT_SYNTHESIS_CELL",
    "CellPlan",
    "CellBlock",
    "default_warmup",
    "synthesize_cell",
    "unpack_payload",
]


def default_warmup(duration: float) -> float:
    """The default synthesis lead-in: half the capture, capped at 90 s.

    The one home of the value (:meth:`SynthesisEngine.plan` and anything
    that needs to map capture time onto the ``[0, warmup + duration)``
    arrival horizon — e.g. network flash-crowd windows — share it; the
    frozen legacy path in :mod:`repro.synthesis.reference` keeps its
    verbatim copy by design).
    """
    return min(float(duration) / 2.0, 90.0)

#: Width (seconds) of one arrival cell.  Part of the seeding contract —
#: cell ``k`` draws from ``SeedSequence`` child ``k``, so changing the
#: width changes the trace (``chunk``/``workers`` never do).  15 s keeps a
#: full-rate OC-12 cell's flow tables cache-resident, which is where most
#: of the engine's single-core speedup over the whole-trace path comes
#: from.
DEFAULT_SYNTHESIS_CELL = 15.0

#: Serialises ``dist.rvs(..., random_state=...)`` calls across worker
#: threads.  scipy frozen distributions save/overwrite/restore their own
#: ``_random_state`` around every ``rvs`` call, so two cells drawing
#: concurrently on a *shared* distribution object could consume each
#: other's per-cell Generator and break worker invariance; the draws are
#: a small fraction of a cell's work, so serialising them is cheap.
#: (The repo's own size/rate laws are stateless, but the parameters are
#: public API documented with scipy's ``rvs`` protocol.)
_DIST_LOCK = threading.Lock()


def _draw(dist, n: int, rng) -> np.ndarray:
    """Thread-safe ``dist.rvs(size=n, random_state=rng)`` as float64."""
    with _DIST_LOCK:
        values = dist.rvs(size=n, random_state=rng)
    return np.asarray(values, dtype=np.float64)


#: Rectangular shot instance shared by every CBR packetization call.
_RECT_SHOT = None


def _rect_shot():
    global _RECT_SHOT
    if _RECT_SHOT is None:
        from ..core.shots import RectangularShot

        _RECT_SHOT = RectangularShot()
    return _RECT_SHOT


@dataclass(frozen=True)
class CellPlan:
    """Frozen description of one link synthesis, cut into arrival cells.

    The cell width is part of the seeding contract: cell ``k`` covers
    ``[-warmup + k * cell, -warmup + (k+1) * cell)`` of the arrival
    timeline and draws from ``SeedSequence`` child ``k``; changing
    ``cell`` changes which child a flow is sampled from and therefore
    the trace.  ``chunk``/``workers`` by contrast never appear here.
    """

    arrivals: ArrivalProcess
    size_dist: object
    duration: float
    warmup: float
    link_capacity: float
    address_space: AddressSpace = field(default_factory=AddressSpace)
    tcp_params: TcpParameters = field(default_factory=TcpParameters)
    rtt_dist: object | None = None
    cbr_rate_dist: object | None = None
    name: str = "synthetic"
    cell: float = DEFAULT_SYNTHESIS_CELL

    def __post_init__(self) -> None:
        check_positive("duration", self.duration)
        check_positive("link_capacity", self.link_capacity)
        check_positive("cell", self.cell)
        if self.warmup < 0.0:
            raise ParameterError(f"warmup must be >= 0, got {self.warmup!r}")

    @property
    def horizon(self) -> float:
        """Arrival horizon in unshifted time: ``duration + warmup``."""
        return self.duration + self.warmup

    @property
    def n_cells(self) -> int:
        return max(1, int(np.ceil(self.horizon / self.cell)))

    def cell_bounds(self, k: int) -> tuple[float, float]:
        """Unshifted arrival bounds ``[t0, t1)`` of cell ``k``."""
        t0 = k * self.cell
        return t0, min(t0 + self.cell, self.horizon)

    def cell_floor(self, k: int) -> float:
        """Capture-time lower bound of any packet from cells ``>= k``.

        Flow starts are at or after their cell's (shifted) left edge and
        packet offsets are non-negative, so once cells ``0..k-1`` are
        synthesized every packet before this time is final — the carry
        rule that lets the merge emit while later cells are still
        unsampled.
        """
        if k >= self.n_cells:
            return np.inf
        return max(0.0, -self.warmup + k * self.cell)


@dataclass
class CellBlock:
    """One cell's packets (time-sorted columns) and flow ground truth."""

    timestamps: np.ndarray  # float64, sorted ascending
    payload_hi: np.ndarray  # uint64: src_addr << 32 | dst_addr
    payload_lo: np.ndarray  # uint64: sport << 48 | dport << 32 | proto << 16 | wire
    flow_starts: np.ndarray  # float64, capture time (may precede 0)
    flow_sizes: np.ndarray  # float64 payload bytes
    flow_protocols: np.ndarray  # uint8

    @property
    def n_packets(self) -> int:
        return int(self.timestamps.size)

    @property
    def n_flows(self) -> int:
        return int(self.flow_starts.size)


def unpack_payload(hi: np.ndarray, lo: np.ndarray):
    """Invert the cell packing into the seven ``PACKET_DTYPE`` columns."""
    src = (hi >> np.uint64(32)).astype(np.uint32)
    dst = (hi & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    sport = (lo >> np.uint64(48)).astype(np.uint16)
    dport = ((lo >> np.uint64(32)) & np.uint64(0xFFFF)).astype(np.uint16)
    proto = ((lo >> np.uint64(16)) & np.uint64(0xFF)).astype(np.uint8)
    wire = (lo & np.uint64(0xFFFF)).astype(np.uint16)
    return src, dst, sport, dport, proto, wire


def _window_table(params: TcpParameters, max_packets: int):
    """Deterministic per-round window sequence and its cumulative sum.

    Identical for every flow: doubling while below ``ssthresh``
    (slow start), then +1 per round (congestion avoidance), capped at
    ``max_window`` — exactly the update rule of
    :func:`~repro.netsim.tcp.simulate_tcp_flows`.
    """
    seq = [params.initial_window]
    total = params.initial_window
    while total < max_packets:
        prev = seq[-1]
        grown = prev * 2 if prev < params.ssthresh else prev + 1
        nxt = min(grown, params.max_window)
        seq.append(nxt)
        total += nxt
    windows = np.asarray(seq, dtype=np.int64)
    return windows, np.cumsum(windows)


def _tcp_cell_packets(plan: CellPlan, starts, sizes, rtts, rng):
    """Packets of the cell's TCP flows, filtered to ``[0, duration)``.

    Returns ``(timestamps, flow_index, wire)`` with ``flow_index`` local
    to the ``starts`` array; unsorted (the caller sorts the whole cell).
    """
    params = plan.tcp_params
    duration = plan.duration
    counts = _packet_counts(sizes, params.mss)
    windows, cum_windows = _window_table(params, int(counts.max()))
    n_rounds = np.searchsorted(cum_windows, counts, side="left") + 1
    total_rounds = int(n_rounds.sum())

    # flow-major round table
    round_flow = np.repeat(np.arange(sizes.size), n_rounds)
    first = np.concatenate(([0], np.cumsum(n_rounds)[:-1]))
    round_idx = np.arange(total_rounds)
    round_idx -= np.repeat(first, n_rounds)
    sent_before = np.where(round_idx > 0, cum_windows[np.maximum(round_idx - 1, 0)], 0)
    round_count = np.minimum(windows[round_idx], counts[round_flow] - sent_before)
    jitter = rng.lognormal(0.0, params.rtt_jitter, total_rounds) \
        if params.rtt_jitter > 0.0 else np.ones(total_rounds)
    round_length = rtts[round_flow] * jitter
    # per-flow cumulative clock via one global cumsum minus each flow's base
    clock = np.cumsum(round_length)
    base = np.repeat(clock[first] - round_length[first], n_rounds)
    round_start = starts[round_flow] + (clock - round_length - base)
    # time of the round's last packet (pacing spreads `count` packets over
    # the round at gaps of length/count, the first leaving at round start).
    # Bitwise the expansion's `round_start + within * pace` for the last
    # packet, so the clean/live classification below can never disagree
    # with the per-packet filter by a rounding ulp at the window edges.
    round_last = round_start + (round_count - 1.0) * (round_length / round_count)

    live = (round_start < duration) & (round_last >= 0.0)
    is_last_round = np.zeros(total_rounds, dtype=bool)
    is_last_round[first + n_rounds - 1] = True
    # rounds fully inside the capture skip the per-packet window filter
    clean = live & (round_start >= 0.0) & (round_last < duration)
    last_wire = np.minimum(
        (sizes - (counts - 1) * params.mss) + params.header_bytes, 65535.0
    )
    full_wire = min(params.mss + params.header_bytes, 65535)

    ts_parts, flow_parts, wire_parts = [], [], []
    for mask, needs_filter in ((clean, False), (live & ~clean, True)):
        counts_m = round_count[mask]
        total = int(counts_m.sum())
        if total == 0:
            continue
        pkt_round = np.repeat(np.arange(counts_m.size), counts_m)
        pkt_first = np.concatenate(([0], np.cumsum(counts_m)[:-1]))
        within = np.arange(total)
        within -= np.repeat(pkt_first, counts_m)
        pace = round_length[mask] / counts_m
        ts = round_start[mask][pkt_round] + within * pace[pkt_round]
        wire = np.full(total, full_wire, dtype=np.uint16)
        sel_last = is_last_round[mask]
        last_pos = pkt_first[sel_last] + counts_m[sel_last] - 1
        wire[last_pos] = last_wire[round_flow[mask][sel_last]].astype(np.uint16)
        flow = round_flow[mask][pkt_round]
        if needs_filter:
            keep = (ts >= 0.0) & (ts < duration)
            ts, flow, wire = ts[keep], flow[keep], wire[keep]
        ts_parts.append(ts)
        flow_parts.append(flow)
        wire_parts.append(wire)
    if not ts_parts:
        empty = np.zeros(0)
        return empty, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint16)
    return (
        np.concatenate(ts_parts),
        np.concatenate(flow_parts),
        np.concatenate(wire_parts),
    )


def synthesize_cell(plan: CellPlan, k: int, seed, times=None) -> CellBlock | None:
    """Synthesize every flow arriving in cell ``k`` of the plan.

    ``seed`` is the cell's ``SeedSequence`` child (or anything
    ``numpy.random.default_rng`` accepts).  ``times`` overrides arrival
    sampling with pre-sampled unshifted start times for processes that
    cannot be sampled per cell (see
    :attr:`~repro.netsim.arrivals.ArrivalProcess.cellable`).

    The canonical draw order is: arrival times, sizes, endpoints, TCP
    RTTs, TCP round jitter, CBR rates, CBR packetization dither.
    Returns ``None`` for a cell with no flows — empty cells are legal;
    only a whole workload with zero flows is an error, which the engine
    raises after the last cell.
    """
    rng = np.random.default_rng(seed)
    t0, t1 = plan.cell_bounds(k)
    if times is None:
        times = plan.arrivals.cell_times(t0, t1, plan.horizon, rng)
    times = np.asarray(times, dtype=np.float64)
    n = times.size
    if n == 0:
        return None
    starts = times - plan.warmup  # capture time; warm-up flows are negative

    sizes = np.maximum(_draw(plan.size_dist, n, rng), 40.0)
    src, dst, sport, dport, proto = plan.address_space.sample_endpoints(n, rng)

    is_tcp = proto == PROTO_TCP
    tcp_idx = np.flatnonzero(is_tcp)
    ts_parts, flow_parts, wire_parts = [], [], []
    if tcp_idx.size:
        if plan.rtt_dist is None:
            rtts = rng.lognormal(np.log(0.5), 0.4, tcp_idx.size)
        else:
            rtts = _draw(plan.rtt_dist, tcp_idx.size, rng)
        ts, flow, wire = _tcp_cell_packets(
            plan, starts[tcp_idx], sizes[tcp_idx], rtts, rng
        )
        ts_parts.append(ts)
        flow_parts.append(tcp_idx[flow])
        wire_parts.append(wire)

    udp_idx = np.flatnonzero(~is_tcp)
    if udp_idx.size:
        if plan.cbr_rate_dist is None:
            rates = rng.lognormal(np.log(20e3), 0.5, udp_idx.size)
        else:
            rates = _draw(plan.cbr_rate_dist, udp_idx.size, rng)
        udp_durations = np.maximum(sizes[udp_idx] / rates, 1e-3)
        schedule = packetize_shots(
            sizes[udp_idx],
            udp_durations,
            _rect_shot(),
            mss=plan.tcp_params.mss,
            header_bytes=plan.tcp_params.header_bytes,
            jitter=0.5,
            rng=rng,
        )
        ts = starts[udp_idx][schedule.flow_index] + schedule.offset
        keep = (ts >= 0.0) & (ts < plan.duration)
        ts_parts.append(ts[keep])
        flow_parts.append(udp_idx[schedule.flow_index[keep]])
        wire_parts.append(schedule.wire_size[keep])

    timestamps = np.concatenate(ts_parts) if ts_parts else np.zeros(0)
    if timestamps.size == 0:
        # all packets fell outside the capture window; the flows still
        # count as ground truth (e.g. warm-up mice ending before t=0)
        return CellBlock(
            timestamps,
            np.zeros(0, dtype=np.uint64),
            np.zeros(0, dtype=np.uint64),
            starts,
            sizes,
            proto,
        )
    flow_of_packet = np.concatenate(flow_parts)
    wire = np.concatenate(wire_parts)

    order = np.argsort(timestamps)  # introsort: ~5x faster than stable here
    flow_sorted = flow_of_packet[order]
    # pack each flow's words once, then gather them per packet
    flow_hi = (src.astype(np.uint64) << np.uint64(32)) | dst
    flow_lo = (
        (sport.astype(np.uint64) << np.uint64(48))
        | (dport.astype(np.uint64) << np.uint64(32))
        | (proto.astype(np.uint64) << np.uint64(16))
    )
    hi = flow_hi[flow_sorted]
    lo = flow_lo[flow_sorted] | wire[order]
    return CellBlock(timestamps[order], hi, lo, starts, sizes, proto)
