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
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
