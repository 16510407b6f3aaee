"""TCP-like per-flow rate dynamics (round-based window evolution).

The validation must not be circular: the model assumes an idealised shot
shape, so the synthetic traffic has to transmit with *different*, more
realistic dynamics.  We use the classic round model of TCP ([7], [21] in
the paper's bibliography): a flow sends a window of packets per round-trip
time, the window doubling each round in slow start up to ``ssthresh`` and
then growing by one segment per round (congestion avoidance), capped by
the receiver window.  Short flows therefore ramp up super-linearly (the
reason the paper finds ``b ~= 2`` for 5-tuple flows) while long flows
spend most of their life at a plateau (closer to rectangular).

The simulator is vectorised across flows: the Python-level loop runs over
*rounds* (tens to hundreds of iterations), never over packets or flows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import as_rng
from ..exceptions import ParameterError
from ..kernels import expand_rounds

__all__ = ["TcpParameters", "PacketSchedule", "simulate_tcp_flows"]


@dataclass(frozen=True)
class TcpParameters:
    """Window-evolution parameters of the round-based TCP model."""

    mss: int = 1460  # payload bytes per segment
    header_bytes: int = 40  # IP + TCP header overhead on the wire
    initial_window: int = 2  # packets
    ssthresh: int = 64  # slow start -> congestion avoidance threshold
    max_window: int = 64  # receiver window, packets
    rtt_jitter: float = 0.1  # lognormal sigma applied per flow round time

    def __post_init__(self) -> None:
        if self.mss < 1:
            raise ParameterError("mss must be >= 1")
        if self.header_bytes < 0:
            raise ParameterError("header_bytes must be >= 0")
        if self.initial_window < 1:
            raise ParameterError("initial_window must be >= 1")
        if self.ssthresh < self.initial_window:
            raise ParameterError("ssthresh must be >= initial_window")
        if self.max_window < self.ssthresh:
            raise ParameterError("max_window must be >= ssthresh")
        if self.rtt_jitter < 0:
            raise ParameterError("rtt_jitter must be >= 0")


@dataclass
class PacketSchedule:
    """Flat per-packet schedule: flow index, time offset from the flow's
    start, and wire size.  The link synthesiser adds arrival times and
    endpoint fields."""

    flow_index: np.ndarray  # int64, which flow each packet belongs to
    offset: np.ndarray  # float64 seconds since the flow started
    wire_size: np.ndarray  # uint16 bytes on the wire

    def __len__(self) -> int:
        return int(self.flow_index.size)

    @classmethod
    def concatenate(cls, schedules) -> "PacketSchedule":
        schedules = [s for s in schedules if len(s)]
        if not schedules:
            return cls(
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.float64),
                np.zeros(0, dtype=np.uint16),
            )
        return cls(
            np.concatenate([s.flow_index for s in schedules]),
            np.concatenate([s.offset for s in schedules]),
            np.concatenate([s.wire_size for s in schedules]),
        )


def _packet_counts(sizes: np.ndarray, mss: int) -> np.ndarray:
    return np.maximum(np.ceil(sizes / mss).astype(np.int64), 1)


def simulate_tcp_flows(
    sizes,
    rtts,
    params: TcpParameters = TcpParameters(),
    rng=None,
) -> PacketSchedule:
    """Simulate the packet schedule of TCP flows.

    Parameters
    ----------
    sizes:
        Per-flow transfer sizes in payload bytes.
    rtts:
        Per-flow round-trip times in seconds.
    params:
        Window dynamics; see :class:`TcpParameters`.
    rng:
        Seed or Generator for per-round RTT jitter.

    Returns
    -------
    PacketSchedule
        Packets of all flows with time offsets measured from each flow's
        first round.  Within a round, packets are paced evenly over the
        round duration (modern TCP pacing; keeps the schedule fluid at
        sub-RTT timescales without modelling queueing).
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    rtts = np.asarray(rtts, dtype=np.float64)
    if sizes.shape != rtts.shape:
        raise ParameterError("sizes and rtts must have the same shape")
    if np.any(sizes <= 0) or np.any(rtts <= 0):
        raise ParameterError("sizes and rtts must be strictly positive")
    rng = as_rng(rng)

    n = sizes.size
    if n == 0:
        # zero flows are a legal (empty) schedule: the streaming synthesis
        # engine feeds this simulator per arrival cell, and cells may be
        # empty — only a whole workload with no flows is an error, raised
        # at the workload level
        return PacketSchedule(
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
            np.zeros(0, dtype=np.uint16),
        )
    remaining = _packet_counts(sizes, params.mss)
    total_packets = remaining.copy()
    window = np.full(n, params.initial_window, dtype=np.int64)
    clock = np.zeros(n, dtype=np.float64)
    sent = np.zeros(n, dtype=np.int64)

    flow_chunks: list[np.ndarray] = []
    start_chunks: list[np.ndarray] = []
    count_chunks: list[np.ndarray] = []
    length_chunks: list[np.ndarray] = []
    sent_before_chunks: list[np.ndarray] = []

    active = remaining > 0
    while np.any(active):
        idx = np.flatnonzero(active)
        send = np.minimum(window[idx], remaining[idx])
        if params.rtt_jitter > 0.0:
            jitter = rng.lognormal(0.0, params.rtt_jitter, idx.size)
        else:
            jitter = np.ones(idx.size)
        round_length = rtts[idx] * jitter

        flow_chunks.append(idx)
        start_chunks.append(clock[idx].copy())
        count_chunks.append(send)
        length_chunks.append(round_length)
        sent_before_chunks.append(sent[idx].copy())

        remaining[idx] -= send
        sent[idx] += send
        clock[idx] += round_length
        in_slow_start = window[idx] < params.ssthresh
        window[idx] = np.where(
            in_slow_start,
            np.minimum(window[idx] * 2, params.max_window),
            np.minimum(window[idx] + 1, params.max_window),
        )
        active = remaining > 0

    round_flow = np.concatenate(flow_chunks)
    round_start = np.concatenate(start_chunks)
    round_count = np.concatenate(count_chunks)
    round_length = np.concatenate(length_chunks)
    round_sent_before = np.concatenate(sent_before_chunks)

    # expand rounds -> packets via the vectorised hot kernel, bit-for-bit
    # equal to a round-by-round loop (pinned by the reference_*
    # equivalence tests).
    last_payload = sizes - (total_packets - 1) * params.mss
    pkt_flow, pkt_offset, wire = expand_rounds(
        round_flow,
        round_start,
        round_count,
        round_length,
        round_sent_before,
        total_packets,
        last_payload,
        params.mss,
        params.header_bytes,
    )

    return PacketSchedule(
        flow_index=pkt_flow,
        offset=pkt_offset,
        wire_size=wire,
    )
