"""Mix collisions: the streaming accountant stays exact when keys share a mix.

The accountant groups packets, and keeps its carry table, in the order
of one 64-bit mix of the packed key words.  Two different keys may share
a mix; every grouping then falls back to the exact ``(mix, hi, lo)``
order.  Real mixes collide too rarely to test, so here the mix is
replaced by a degenerate one (``hi & 1``: half of all keys share each
value), and the engine == oracle property of
``test_engine_properties.py`` must still hold at every chunk size and
shard count — so every chunk sort, carry match and carry rebuild runs on
colliding keys.

A chunk is sorted by the mix's leading bits only (the bits above the
row index), so two keys whose mixes differ only below the index width
share a lead without colliding; the grouping must then fall back to the
exact order too.  A second mix spans all 64 bits and gives such keys
mixes that differ only in their two lowest bits.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flows.keys import pack_packet_keys
from repro.measurement import StreamingMeasurement, reference_export_flows
from repro.measurement import streaming
from repro.stats.timeseries import RateSeries
from repro.trace import packets_from_columns

from .test_engine_properties import (
    GRID,
    check_engine_equals_oracle,
    flow_keys,
    packet_streams,
)


def _degenerate_mix(hi, lo):
    return hi & np.uint64(1)


def _constant_mix(hi, lo):
    return np.zeros(hi.size, dtype=np.uint64)


def _low_bits_mix(hi, lo):
    # the top bit spreads the mixes over the whole 64-bit span, so the
    # lead drops the low bits, which alone tell most keys apart
    return ((hi & np.uint64(1)) << np.uint64(63)) | (
        ((hi >> np.uint64(32)) ^ (lo >> np.uint64(24))) & np.uint64(3)
    )


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("chunk", [1, 7, None])
@given(
    packets=packet_streams(),
    flow_key=flow_keys,
    timeout=st.integers(1, 32).map(lambda k: k * GRID),
    min_packets=st.integers(1, 4),
)
@settings(max_examples=60, deadline=None)
def test_engine_equals_oracle_on_colliding_mix(
    packets, flow_key, timeout, min_packets, chunk, workers
):
    with mock.patch.object(streaming, "_key_mix", _degenerate_mix):
        check_engine_equals_oracle(
            packets, flow_key, timeout, min_packets, chunk, workers
        )


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("chunk", [1, 7, None])
@given(
    packets=packet_streams(),
    flow_key=flow_keys,
    timeout=st.integers(1, 32).map(lambda k: k * GRID),
    min_packets=st.integers(1, 4),
)
@settings(max_examples=60, deadline=None)
def test_engine_equals_oracle_when_mixes_differ_below_the_lead(
    packets, flow_key, timeout, min_packets, chunk, workers
):
    with mock.patch.object(streaming, "_key_mix", _low_bits_mix):
        check_engine_equals_oracle(
            packets, flow_key, timeout, min_packets, chunk, workers
        )


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("chunk", [1, 7, None])
def test_shared_lead_falls_back_while_mixes_differ(chunk, workers):
    # a and b share a lead (mixes 2**63 + 1 and 2**63 + 2 in a chunk of
    # 8 rows, 3 index bits) but not a mix; c has mix 1, so the mixes
    # span 64 bits
    a = (1, 0x0B000001, 1000, 80, 6)
    b = (2, 0x0B000001, 1000, 80, 6)
    c = (1, 0x0B000002, 1000, 80, 6)
    keys = [a, b, a, c, b, a, c, b]
    packets = packets_from_columns(
        np.arange(len(keys)) * GRID, *zip(*keys), np.full(len(keys), 100),
    )
    hi, lo = pack_packet_keys(packets, "five_tuple")
    mixes = dict(zip(keys, _low_bits_mix(hi, lo).tolist()))
    assert len(set(mixes.values())) == 3
    assert mixes[a] >> 3 == mixes[b] >> 3 != mixes[c] >> 3

    calls = []
    order = streaming.packed_key_order

    def spy(*words, **kwargs):
        calls.append(len(words))
        return order(*words, **kwargs)

    with mock.patch.object(streaming, "_key_mix", _low_bits_mix), \
            mock.patch.object(streaming, "packed_key_order", spy):
        check_engine_equals_oracle(
            packets, {"key": "five_tuple"}, 1.0, 2, chunk, workers
        )
    if workers == 1:
        # the (mix, hi, lo) fallback ran wherever a chunk held a and b
        assert (3 in calls) == (chunk != 1)


def test_colliding_keys_straddle_a_chunk_boundary():
    # keys A and B share the (constant) mix; both are open at the chunk
    # boundary, then A continues its flow and B's gap closes it
    a = (0x0A000001, 0x0B000001, 1000, 80, 6)
    b = (0x0A000002, 0x0B000002, 2000, 80, 6)
    rows = [(0.0, a), (0.1, b), (0.5, a), (0.6, b),  # chunk 1
            (1.2, a), (3.0, b), (3.5, b)]            # chunk 2
    packets = packets_from_columns(
        [t for t, _ in rows], *zip(*(key for _, key in rows)),
        np.full(len(rows), 100),
    )
    with mock.patch.object(streaming, "_key_mix", _constant_mix):
        m = StreamingMeasurement(timeout=1.0, delta=0.5, duration=4.0)
        m.update(packets[:4])
        (state,) = m._states
        assert state.mix.tolist() == [0, 0]  # both carried, colliding
        m.update(packets[4:])
        flows, series = m.finalize()

    expected, packet_map = reference_export_flows(packets, timeout=1.0)
    assert flows.starts.tolist() == expected.starts.tolist() == [0.0, 0.1, 3.0]
    assert flows.ends.tolist() == expected.ends.tolist() == [1.2, 0.6, 3.5]
    assert flows.packet_counts.tolist() == [3, 2, 2]
    np.testing.assert_array_equal(flows.keys, expected.keys)
    assert flows.keys.tolist() == [a, b, b]
    expected_series = RateSeries.from_packets(
        packets[packet_map >= 0], 0.5, duration=4.0
    )
    assert series.values.tolist() == expected_series.values.tolist()
