"""A sealed measurement's flows are in the exporter's order; assemble keeps it.

:meth:`StreamingMeasurement.seal` sorts a measurement's closed flows by
(key, start) once, and :meth:`StreamingMeasurement.assemble` combines
sealed parts with disjoint keys by a stable sort on the key alone — no
sort at all for one part.  These tests hold that to one full
``np.lexsort((starts, lo, hi))`` sort of the parts' flows, byte for
byte, and check that the order survives the pickling the
process backend puts a sealed measurement through.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import FlowExportError
from repro.execution import make_pool
from repro.flows.keys import pack_packet_keys
from repro.measurement import StreamingMeasurement
from repro.trace import packets_from_columns

#: Timestamps on a 1/8 s grid, so ties and gaps of exactly the timeout
#: (a multiple of 1/8 s) are common.
GRID = 0.125
TIMEOUT = 2.0
DURATION = 60.0
DELTA = 0.5


def part_packets(block: int, n: int, n_hosts: int, seed: int) -> np.ndarray:
    """``n`` time-sorted packets whose destinations lie in /24 ``block``.

    Few hosts over a span many timeouts long: most keys recur after an
    idle gap, so the timeout splits them into several flows.
    """
    rng = np.random.default_rng(seed)
    ticks = np.sort(rng.integers(0, int(DURATION / GRID), n))
    return packets_from_columns(
        ticks * GRID,
        rng.integers(1, n_hosts + 1, n).astype(np.uint32),
        (0x0B000000 + block * 256 + rng.integers(1, 3, n)).astype(np.uint32),
        rng.integers(1000, 1000 + n_hosts, n).astype(np.uint16),
        np.full(n, 80, dtype=np.uint16),
        rng.choice(np.array([6, 17], dtype=np.uint8), n),
        rng.integers(40, 1500, n).astype(np.uint16),
    )


def sealed(
    packets: np.ndarray, chunk: int, shards: int = 1, **key
) -> StreamingMeasurement:
    part = StreamingMeasurement(
        timeout=TIMEOUT, delta=DELTA, duration=DURATION, shards=shards,
        **key
    )
    for start in range(0, packets.size, chunk):
        part.update(packets[start:start + chunk])
    part.seal()
    return part


def packed(flows):
    """``(hi, lo)`` of a FlowSet's keys."""
    if flows.key_kind == "five_tuple":
        return pack_packet_keys(flows.keys, "five_tuple")
    hi = flows.keys.astype(np.uint64)
    return hi, np.zeros(hi.size, dtype=np.uint64)


def one_sort(parts):
    """The parts' flows concatenated, then sorted by (key, start)."""
    alone = [StreamingMeasurement.assemble([part])[0] for part in parts]
    starts, ends, sizes, counts, keys = (
        np.concatenate([getattr(flows, name) for flows in alone])
        for name in ("starts", "ends", "sizes", "packet_counts", "keys")
    )
    hi, lo = (np.concatenate(words) for words in zip(*map(packed, alone)))
    order = np.lexsort((starts, lo, hi))
    return starts[order], ends[order], sizes[order], counts[order], keys[order]


def assert_same_bytes(flows, expected):
    got = (flows.starts, flows.ends, flows.sizes, flows.packet_counts, flows.keys)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


key_kinds = st.sampled_from(
    [{"key": "five_tuple"}, {"key": "prefix", "prefix_length": 24}]
)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 120), min_size=1, max_size=5),
    n_hosts=st.integers(1, 4),
    chunk=st.integers(1, 200),
    shards=st.integers(1, 3),
    seed=st.integers(0, 2**31),
    key=key_kinds,
)
def test_assemble_equals_one_key_start_sort(
    sizes, n_hosts, chunk, shards, seed, key
):
    """1-5 parts on disjoint /24s, empty ones included."""
    parts = [
        sealed(
            part_packets(block, n, n_hosts, seed + block), chunk, shards,
            **key,
        )
        for block, n in enumerate(sizes)
    ]
    flows, series, _ = StreamingMeasurement.assemble(parts)
    assert_same_bytes(flows, one_sort(parts))
    assert flows.discarded_packets == sum(
        StreamingMeasurement.assemble([p])[0].discarded_packets for p in parts
    )
    assert series.values.tobytes() == (
        sum(StreamingMeasurement.assemble([p])[1].values for p in parts)
    ).tobytes()


def split_parts():
    """Three parts, one empty, whose keys recur after the timeout."""
    return [
        sealed(part_packets(0, 300, 2, seed=1), chunk=64),
        sealed(part_packets(1, 0, 2, seed=2), chunk=64),
        sealed(part_packets(2, 300, 2, seed=3), chunk=64),
    ]


def test_timeout_splits_keys_into_several_flows():
    flows, _, _ = StreamingMeasurement.assemble(split_parts())
    hi, lo = packed(flows)
    same_key = (hi[1:] == hi[:-1]) & (lo[1:] == lo[:-1])
    assert same_key.any()
    # a key's flows follow each other in start order
    assert np.all(flows.starts[1:][same_key] > flows.starts[:-1][same_key])


def test_assemble_needs_sealed_parts():
    open_part = StreamingMeasurement(timeout=TIMEOUT)
    open_part.update(part_packets(0, 50, 2, seed=4))
    with pytest.raises(FlowExportError, match="sealed"):
        StreamingMeasurement.assemble([open_part])
    open_part.finalize()  # its flows went to the returned FlowSet
    with pytest.raises(FlowExportError, match="sealed"):
        StreamingMeasurement.assemble([open_part])


def test_pickled_sealed_parts_keep_their_order():
    parts = split_parts()
    copies = [pickle.loads(pickle.dumps(part)) for part in parts]
    expected = one_sort(parts)
    assert_same_bytes(StreamingMeasurement.assemble(copies)[0], expected)
    for part, copy in zip(parts, copies):
        assert_same_bytes(
            StreamingMeasurement.assemble([copy])[0],
            one_sort([part]),
        )


def _assembled_flows(parts):
    """Worker entry: assemble shipped parts, return the flow columns."""
    flows = StreamingMeasurement.assemble(parts)[0]
    return flows.starts, flows.ends, flows.sizes, flows.packet_counts, flows.keys


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_sealed_parts_assemble_alike_on_any_backend(backend):
    parts = split_parts()
    tasks = [parts, parts[:1], parts[1:]]
    with make_pool(backend, 2) as pool:
        shipped = pool.map_ordered(_assembled_flows, tasks)
    for columns, task in zip(shipped, tasks):
        for a, b in zip(columns, one_sort(task)):
            assert a.tobytes() == b.tobytes()
