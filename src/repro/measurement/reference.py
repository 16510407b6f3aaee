"""Reference (pre-engine) measurement implementations, kept verbatim.

These are the hot loops the measurement engine replaced, preserved as
oracles — exactly like :func:`repro.generation.reference_rate_series`
stays next to the generation engine.  ``benchmarks/
bench_measurement_scaling.py`` races the engine against them on the same
trace and asserts the outputs agree; tests use them to pin equivalence.

* :func:`reference_export_flows` — flow accounting via the original
  structured-dtype ``np.unique`` grouping (a 23-byte struct compare per
  element) and one whole-trace sort/split/bincount pass.  It is the
  in-memory oracle the streaming engine is pinned to, and it alone
  keeps the per-packet flow map.
* :func:`reference_ewma_replay` — the per-flow Python loop through
  :class:`~repro.stats.estimators.OnlineFlowStatistics` that
  ``repro.pipeline`` used for ``estimator="ewma"`` before the closed-form
  vectorized replay.

The direct O(n·max_lag) autocovariance remains available as
``autocovariance_series(..., method="direct")``.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import FlowExportError
from ..flows.exporter import DEFAULT_TIMEOUT
from ..flows.keys import FIVE_TUPLE_FIELDS, prefix_of
from ..flows.records import FlowSet
from ..stats.estimators import OnlineFlowStatistics
from ..trace.packet import PACKET_DTYPE, PacketTrace

__all__ = ["reference_export_flows", "reference_ewma_replay"]


def _as_packet_array(packets) -> np.ndarray:
    if isinstance(packets, PacketTrace):
        packets = packets.packets
    packets = np.asarray(packets)
    if packets.dtype != PACKET_DTYPE:
        raise FlowExportError(
            f"expected PACKET_DTYPE packets, got dtype {packets.dtype}"
        )
    return packets


def _group_indices(packets: np.ndarray, key: str, prefix_length: int):
    """Return (unique_keys, inverse) grouping packets by flow key."""
    if key == "five_tuple":
        # A packed contiguous copy of the key fields; np.unique sorts
        # structured arrays lexicographically.
        key_view = np.empty(
            packets.size,
            dtype=[(f, packets.dtype[f]) for f in FIVE_TUPLE_FIELDS],
        )
        for field in FIVE_TUPLE_FIELDS:
            key_view[field] = packets[field]
        return np.unique(key_view, return_inverse=True)
    if key == "prefix":
        prefixes = prefix_of(packets["dst_addr"], prefix_length)
        return np.unique(prefixes, return_inverse=True)
    raise FlowExportError(f"unknown flow key {key!r}; use 'five_tuple' or 'prefix'")


def reference_export_flows(
    packets,
    *,
    key: str = "five_tuple",
    timeout: float = DEFAULT_TIMEOUT,
    min_packets: int = 2,
    prefix_length: int = 24,
) -> tuple[FlowSet, np.ndarray]:
    """The pre-engine :func:`~repro.flows.exporter.export_flows` body.

    Returns the flow set and its packet map: each input packet's index
    into the flow set, -1 where the packet was discarded.  The
    single-packet-filtered rate series is therefore
    ``RateSeries.from_packets(packets[packet_map >= 0], ...)``.
    """
    packets = _as_packet_array(packets)
    if timeout <= 0:
        raise FlowExportError(f"timeout must be > 0, got {timeout}")
    if min_packets < 1:
        raise FlowExportError(f"min_packets must be >= 1, got {min_packets}")

    if packets.size == 0:
        keys = (
            np.zeros(0, dtype=[(f, packets.dtype[f]) for f in FIVE_TUPLE_FIELDS])
            if key == "five_tuple"
            else np.zeros(0, dtype=np.uint32)
        )
        flows = FlowSet(
            np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int64),
            key_kind=key, keys=keys, prefix_length=prefix_length, timeout=timeout,
        )
        return flows, np.zeros(0, dtype=np.int64)

    unique_keys, inverse = _group_indices(packets, key, prefix_length)
    timestamps = packets["timestamp"]

    # Order by (flow group, time); split groups at gaps > timeout.
    order = np.lexsort((timestamps, inverse))
    grp = inverse[order]
    ts = timestamps[order]
    same_group = grp[1:] == grp[:-1]
    gap_ok = (ts[1:] - ts[:-1]) <= timeout
    new_flow = np.concatenate([[True], ~(same_group & gap_ok)])
    flow_ids = np.cumsum(new_flow) - 1
    n_flows = int(flow_ids[-1]) + 1

    first_idx = np.flatnonzero(new_flow)
    last_idx = np.concatenate([first_idx[1:] - 1, [order.size - 1]])

    starts = ts[first_idx]
    ends = ts[last_idx]
    sizes = np.bincount(
        flow_ids, weights=packets["size"][order].astype(np.float64),
        minlength=n_flows,
    )
    counts = np.bincount(flow_ids, minlength=n_flows)
    key_index = grp[first_idx]

    keep = (counts >= min_packets) & (ends > starts)
    discarded_packets = int(counts[~keep].sum())

    renumber = np.full(n_flows, -1, dtype=np.int64)
    renumber[keep] = np.arange(int(keep.sum()))
    packet_flow_ids = np.empty(packets.size, dtype=np.int64)
    packet_flow_ids[order] = renumber[flow_ids]

    flows = FlowSet(
        starts[keep],
        ends[keep],
        sizes[keep],
        counts[keep],
        key_kind=key,
        keys=unique_keys[key_index[keep]],
        prefix_length=prefix_length,
        timeout=timeout,
        discarded_packets=discarded_packets,
    )
    return flows, packet_flow_ids


def reference_ewma_replay(flows: FlowSet, eps: float):
    """The pre-engine per-flow EWMA replay loop (section V-G).

    Feeds every flow arrival and departure through the router-style
    :class:`OnlineFlowStatistics` estimators one Python call at a time;
    returns the snapshot, or ``None`` before the estimators are ready.
    """
    online = OnlineFlowStatistics(eps=eps)
    for start in np.sort(flows.starts):
        online.observe_arrival(float(start))
    order = np.argsort(flows.ends, kind="stable")
    for size, duration in zip(flows.sizes[order], flows.durations[order]):
        online.observe_departure(float(size), float(duration))
    return online.snapshot() if online.ready else None
