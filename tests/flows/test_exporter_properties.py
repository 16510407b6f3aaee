"""Property-based tests for the flow exporter (hypothesis).

The exporter is the trust anchor of the whole measurement pipeline, so its
invariants are checked on randomly generated packet streams:

* byte conservation: kept flows + discarded packets account for every byte;
* every flow's packets fit inside [start, end] with gaps <= timeout;
* flow grouping is permutation-invariant (timestamp order is recovered);
* prefix aggregation never yields more flows than 5-tuple grouping.

The first two read the per-packet flow map, which only the in-memory
oracle ``reference_export_flows`` keeps; the engine behind
``export_flows`` is pinned to that oracle bit for bit in
``tests/measurement/test_engine_properties.py``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flows import export_five_tuple_flows, export_prefix_flows
from repro.measurement import reference_export_flows
from repro.trace import packets_from_columns


@st.composite
def packet_streams(draw):
    """Random small packet streams with a handful of endpoints."""
    n = draw(st.integers(min_value=1, max_value=120))
    n_hosts = draw(st.integers(min_value=1, max_value=6))
    times = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
            min_size=n, max_size=n,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    src = rng.integers(1, n_hosts + 1, n).astype(np.uint32)
    dst = (0x0B000000 + rng.integers(0, n_hosts, n) * 256 + 1).astype(np.uint32)
    sizes = rng.integers(40, 1500, n).astype(np.uint16)
    return packets_from_columns(
        np.array(times), src, dst,
        np.full(n, 1000, dtype=np.uint16), np.full(n, 80, dtype=np.uint16),
        np.full(n, 6, dtype=np.uint8), sizes,
    )


@given(packets=packet_streams(), timeout=st.floats(min_value=0.5, max_value=120.0))
@settings(max_examples=120, deadline=None)
def test_byte_conservation(packets, timeout):
    total = float(packets["size"].astype(np.int64).sum())
    flows, packet_map = reference_export_flows(packets, timeout=timeout)
    kept = flows.sizes.sum()
    discarded = float(packets["size"][packet_map < 0].astype(np.int64).sum())
    assert kept + discarded == total


@given(packets=packet_streams(), timeout=st.floats(min_value=0.5, max_value=120.0))
@settings(max_examples=120, deadline=None)
def test_flow_time_bounds_and_gaps(packets, timeout):
    flows, packet_map = reference_export_flows(packets, timeout=timeout)
    ts = packets["timestamp"]
    for flow_id in range(len(flows)):
        member_times = np.sort(ts[packet_map == flow_id])
        assert member_times.size == flows.packet_counts[flow_id]
        assert member_times[0] == flows.starts[flow_id]
        assert member_times[-1] == flows.ends[flow_id]
        if member_times.size > 1:
            assert np.max(np.diff(member_times)) <= timeout + 1e-9


@given(packets=packet_streams())
@settings(max_examples=60, deadline=None)
def test_permutation_invariance(packets):
    rng = np.random.default_rng(0)
    shuffled = packets[rng.permutation(packets.size)]
    a = export_five_tuple_flows(packets, timeout=10.0)
    b = export_five_tuple_flows(shuffled, timeout=10.0)
    assert len(a) == len(b)
    order_a = np.lexsort((a.sizes, a.starts))
    order_b = np.lexsort((b.sizes, b.starts))
    np.testing.assert_allclose(a.starts[order_a], b.starts[order_b])
    np.testing.assert_allclose(a.sizes[order_a], b.sizes[order_b])


@given(packets=packet_streams(), timeout=st.floats(min_value=0.5, max_value=120.0))
@settings(max_examples=60, deadline=None)
def test_prefix_aggregation_keeps_at_least_as_many_bytes(packets, timeout):
    """Merging by prefix can only *rescue* packets from the single-packet
    discard (two discarded singles may form one valid prefix flow), never
    lose kept bytes: a kept 5-tuple flow's packets always stay inside one
    kept prefix flow, because merging only shrinks inter-packet gaps.

    (Note: the *flow count* is NOT monotone for exactly this reason —
    hypothesis found the counterexample; see git history.)
    """
    five = export_five_tuple_flows(packets, timeout=timeout)
    prefix = export_prefix_flows(packets, timeout=timeout)
    assert prefix.total_bytes >= five.total_bytes - 1e-9
    assert prefix.discarded_packets <= five.discarded_packets


@given(packets=packet_streams())
@settings(max_examples=60, deadline=None)
def test_durations_always_positive(packets):
    flows = export_five_tuple_flows(packets, timeout=30.0)
    assert np.all(flows.durations > 0)
    assert np.all(flows.packet_counts >= 2)
