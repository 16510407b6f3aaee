"""Property test: the measurement engine equals the in-memory oracle.

``export_flows`` and every other front door run the streaming engine, so
its one ground truth is the frozen ``reference_export_flows`` (plus
``RateSeries.from_packets`` over the packets the oracle keeps).  On
random packet streams — colliding keys, tied timestamps, gaps of exactly
the timeout, unsorted input — the engine must reproduce both **bit for
bit** for every key kind, ``timeout``, ``min_packets``, chunk size and
shard count.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.measurement import MeasurementEngine, reference_export_flows
from repro.stats.timeseries import RateSeries
from repro.trace import packets_from_columns

#: Timestamps live on a 1/8 s grid, so ties and gaps of exactly
#: ``timeout`` (also a multiple of 1/8 s) are common, not measure-zero.
GRID = 0.125
MAX_TICK = 400
DELTA = 0.5


@st.composite
def packet_streams(draw):
    """Small packet streams over a handful of hosts and /24s."""
    n = draw(st.integers(min_value=0, max_value=150))
    span = draw(st.integers(min_value=1, max_value=MAX_TICK))
    ticks = draw(st.lists(st.integers(0, span), min_size=n, max_size=n))
    if draw(st.booleans()):
        ticks.sort()  # a valid capture; otherwise the engine sorts first
    n_hosts = draw(st.integers(min_value=1, max_value=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    src = rng.integers(1, n_hosts + 1, n).astype(np.uint32)
    dst = (
        0x0B000000
        + rng.integers(0, n_hosts, n) * 256
        + rng.integers(1, 3, n)
    ).astype(np.uint32)
    sport = rng.integers(1000, 1000 + n_hosts, n).astype(np.uint16)
    return packets_from_columns(
        np.asarray(ticks, dtype=np.float64) * GRID, src, dst, sport,
        np.full(n, 80, dtype=np.uint16),
        rng.choice(np.array([6, 17], dtype=np.uint8), n),
        rng.integers(40, 1500, n).astype(np.uint16),
    )


flow_keys = st.one_of(
    st.just({"key": "five_tuple"}),
    st.builds(
        lambda length: {"key": "prefix", "prefix_length": length},
        st.sampled_from([8, 16, 24, 30, 32]),
    ),
)


@given(
    packets=packet_streams(),
    flow_key=flow_keys,
    timeout=st.integers(1, 32).map(lambda k: k * GRID),
    min_packets=st.integers(1, 4),
    chunk=st.one_of(st.none(), st.integers(1, 40)),
    workers=st.integers(1, 3),
)
@settings(max_examples=200, deadline=None)
def test_engine_equals_reference_oracle(
    packets, flow_key, timeout, min_packets, chunk, workers
):
    check_engine_equals_oracle(
        packets, flow_key, timeout, min_packets, chunk, workers
    )


def check_engine_equals_oracle(
    packets, flow_key, timeout, min_packets, chunk, workers
):
    """The engine's FlowSet and rate series equal the oracle's, bitwise."""
    kwargs = dict(timeout=timeout, min_packets=min_packets, **flow_key)
    expected, packet_map = reference_export_flows(packets, **kwargs)
    duration = MAX_TICK * GRID + 1.0
    expected_series = RateSeries.from_packets(
        packets[packet_map >= 0], DELTA, duration=duration
    )

    result = MeasurementEngine(
        chunk=chunk, workers=workers, backend="serial"
    ).measure_trace(packets, delta=DELTA, duration=duration, **kwargs)

    flows = result.flows
    np.testing.assert_array_equal(flows.starts, expected.starts)
    np.testing.assert_array_equal(flows.ends, expected.ends)
    np.testing.assert_array_equal(flows.sizes, expected.sizes)
    np.testing.assert_array_equal(flows.packet_counts, expected.packet_counts)
    np.testing.assert_array_equal(flows.keys, expected.keys)
    assert flows.keys.dtype == expected.keys.dtype
    assert flows.key_kind == expected.key_kind
    assert flows.discarded_packets == expected.discarded_packets
    np.testing.assert_array_equal(
        result.series.values, expected_series.values
    )
