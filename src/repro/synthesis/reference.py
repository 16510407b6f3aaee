"""Frozen legacy whole-trace synthesis — the engine's racing baseline.

``reference_synthesize_link_trace`` is the pre-engine implementation of
one-link synthesis, kept verbatim (including
its private copy of the round-synchronous TCP loop and its original
per-packet round expansion) as the performance baseline the synthesis
benchmarks race against — the same role
:func:`repro.generation.reference_rate_series` (the per-flow rate loop,
fed the generation engine's flows) and
:func:`repro.measurement.reference_export_flows` play for the generation
and measurement engines.

It samples every flow from **one** sequential RNG stream, so for a given
seed its trace differs draw-for-draw from the cell-seeded engine output;
the two are equal in distribution (same arrival, size, endpoint, RTT and
rate laws; same round-model dynamics), not bitwise.  Use it when an
independent realisation of the legacy sampling scheme is wanted, or as
the memory/throughput baseline; use
:meth:`~repro.synthesis.SynthesisEngine.synthesize` for everything
else.
"""

from __future__ import annotations

import numpy as np

from .._util import as_rng, check_positive
from ..core.shots import RectangularShot
from ..exceptions import ParameterError
from ..flows.keys import PROTO_TCP
from ..netsim.addresses import AddressSpace
from ..netsim.packetize import packetize_shots
from ..netsim.tcp import PacketSchedule, TcpParameters, _packet_counts
from ..trace.packet import PacketTrace, packets_from_columns

__all__ = ["reference_synthesize_link_trace"]


def _reference_simulate_tcp_flows(
    sizes, rtts, params: TcpParameters, rng
) -> PacketSchedule:
    """The original round-loop TCP simulator with its original expansion.

    Byte-identical to the pre-engine ``simulate_tcp_flows`` (whose live
    version now uses a buffer-reusing expansion): the full-width
    ``arange``/``repeat`` temporaries are retained here on purpose so the
    benchmark's peak-memory baseline stays honest.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    rtts = np.asarray(rtts, dtype=np.float64)
    n = sizes.size
    remaining = _packet_counts(sizes, params.mss)
    total_packets = remaining.copy()
    window = np.full(n, params.initial_window, dtype=np.int64)
    clock = np.zeros(n, dtype=np.float64)
    sent = np.zeros(n, dtype=np.int64)

    flow_chunks, start_chunks, count_chunks = [], [], []
    length_chunks, sent_before_chunks = [], []

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

    # the original expansion: one full-trace-size temporary per step
    total = int(round_count.sum())
    pkt_flow = np.repeat(round_flow, round_count)
    first_of_round = np.concatenate([[0], np.cumsum(round_count)[:-1]])
    within_round = np.arange(total) - np.repeat(first_of_round, round_count)
    pace = np.repeat(round_length / round_count, round_count)
    pkt_offset = np.repeat(round_start, round_count) + within_round * pace

    within_flow = np.repeat(round_sent_before, round_count) + within_round
    is_last = within_flow == total_packets[pkt_flow] - 1
    last_payload = sizes - (total_packets - 1) * params.mss
    payload = np.where(is_last, last_payload[pkt_flow], float(params.mss))
    wire = np.minimum(payload + params.header_bytes, 65535.0)

    return PacketSchedule(
        flow_index=pkt_flow.astype(np.int64),
        offset=pkt_offset,
        wire_size=wire.astype(np.uint16),
    )


def reference_synthesize_link_trace(
    *,
    arrivals,
    size_dist,
    duration: float,
    link_capacity: float,
    address_space: AddressSpace | None = None,
    tcp_params: TcpParameters = TcpParameters(),
    rtt_dist=None,
    cbr_rate_dist=None,
    warmup: float | None = None,
    name: str = "synthetic",
    seed=None,
):
    """Whole-trace, single-stream synthesis (legacy path, frozen).

    Signature and semantics of the pre-engine one-link synthesis; see
    :meth:`repro.synthesis.SynthesisEngine.plan` for the parameter
    documentation.  Returns a :class:`~repro.netsim.link.LinkSynthesis`.
    """
    from ..netsim.link import LinkSynthesis

    duration = check_positive("duration", duration)
    check_positive("link_capacity", link_capacity)
    rng = as_rng(seed)
    if address_space is None:
        address_space = AddressSpace()
    if warmup is None:
        warmup = min(duration / 2.0, 90.0)
    warmup = max(float(warmup), 0.0)

    start_times = arrivals.times(duration + warmup, rng) - warmup
    n = start_times.size
    if n == 0:
        raise ParameterError(
            "arrival process produced zero flows; increase rate or duration"
        )

    sizes = np.asarray(size_dist.rvs(size=n, random_state=rng), dtype=np.float64)
    sizes = np.maximum(sizes, 40.0)
    src_addr, dst_addr, src_port, dst_port, protocol = (
        address_space.sample_endpoints(n, rng)
    )

    is_tcp = protocol == PROTO_TCP
    schedules = []

    if np.any(is_tcp):
        tcp_idx = np.flatnonzero(is_tcp)
        if rtt_dist is None:
            rtts = rng.lognormal(np.log(0.5), 0.4, tcp_idx.size)
        else:
            rtts = np.asarray(
                rtt_dist.rvs(size=tcp_idx.size, random_state=rng),
                dtype=np.float64,
            )
        sched = _reference_simulate_tcp_flows(
            sizes[tcp_idx], rtts, tcp_params, rng
        )
        sched.flow_index = tcp_idx[sched.flow_index]
        schedules.append(sched)

    if np.any(~is_tcp):
        udp_idx = np.flatnonzero(~is_tcp)
        if cbr_rate_dist is None:
            rates = rng.lognormal(np.log(20e3), 0.5, udp_idx.size)
        else:
            rates = np.asarray(
                cbr_rate_dist.rvs(size=udp_idx.size, random_state=rng),
                dtype=np.float64,
            )
        udp_durations = np.maximum(sizes[udp_idx] / rates, 1e-3)
        sched = packetize_shots(
            sizes[udp_idx],
            udp_durations,
            RectangularShot(),
            mss=tcp_params.mss,
            header_bytes=tcp_params.header_bytes,
            jitter=0.5,
            rng=rng,
        )
        sched.flow_index = udp_idx[sched.flow_index]
        schedules.append(sched)

    schedule = PacketSchedule.concatenate(schedules)
    timestamps = start_times[schedule.flow_index] + schedule.offset

    keep = (timestamps >= 0.0) & (timestamps < duration)
    timestamps = timestamps[keep]
    flow_of_packet = schedule.flow_index[keep]
    wire_sizes = schedule.wire_size[keep]

    packets = packets_from_columns(
        timestamps,
        src_addr[flow_of_packet],
        dst_addr[flow_of_packet],
        src_port[flow_of_packet],
        dst_port[flow_of_packet],
        protocol[flow_of_packet],
        wire_sizes,
    )
    order = np.argsort(packets["timestamp"], kind="stable")
    trace = PacketTrace(
        packets[order],
        link_capacity=link_capacity,
        duration=duration,
        name=name,
    )
    return LinkSynthesis(
        trace=trace,
        flow_start_times=start_times,
        flow_sizes=sizes,
        flow_protocols=protocol,
    )
