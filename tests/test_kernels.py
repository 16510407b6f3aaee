"""Equivalence gates for the vectorised hot kernels.

Each NumPy kernel is pinned against an independent pure-Python oracle
written here, so the engines' bitwise contracts rest on a plain loop.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.shots import PowerShot
from repro.kernels import ewma, expand_rounds, powershot_scatter
from repro.stats.estimators import EwmaEstimator


# -- TCP round expansion ------------------------------------------------


def _round_fixture(seed=0, n_flows=40):
    """Synthetic per-round send records shaped like the TCP simulator's."""
    rng = np.random.default_rng(seed)
    total_packets = rng.integers(1, 30, n_flows)
    sizes = (total_packets - 1) * 1460 + rng.integers(1, 1461, n_flows)
    flows, starts, counts, lengths, sent_before = [], [], [], [], []
    clock = np.zeros(n_flows)
    sent = np.zeros(n_flows, dtype=np.int64)
    window = 2
    remaining = total_packets.copy()
    while np.any(remaining > 0):
        idx = np.flatnonzero(remaining > 0)
        send = np.minimum(window, remaining[idx])
        length = rng.lognormal(-3.0, 0.2, idx.size)
        flows.append(idx)
        starts.append(clock[idx].copy())
        counts.append(send)
        lengths.append(length)
        sent_before.append(sent[idx].copy())
        remaining[idx] -= send
        sent[idx] += send
        clock[idx] += length
        window = min(window * 2, 64)
    return (
        np.concatenate(flows),
        np.concatenate(starts),
        np.concatenate(counts),
        np.concatenate(lengths),
        np.concatenate(sent_before),
        total_packets.astype(np.int64),
        (sizes - (total_packets - 1) * 1460).astype(np.float64),
    )


def _expand_rounds_oracle(args, mss=1460.0, header=40.0):
    """Straight per-packet Python loop; the semantics being vectorised."""
    (flow, start, count, length, sent_before, total, last_payload) = args
    out_flow, out_offset, out_wire = [], [], []
    for r in range(flow.size):
        pace = length[r] / count[r]
        for w in range(count[r]):
            f = flow[r]
            out_flow.append(f)
            out_offset.append(w * pace + start[r])
            payload = (
                last_payload[f]
                if sent_before[r] + w == total[f] - 1
                else mss
            )
            out_wire.append(np.uint16(min(payload + header, 65535.0)))
    return (
        np.array(out_flow, dtype=np.int64),
        np.array(out_offset),
        np.array(out_wire, dtype=np.uint16),
    )


def test_expand_rounds_matches_oracle():
    args = _round_fixture()
    flow, offset, wire = expand_rounds(*args, 1460.0, 40.0)
    o_flow, o_offset, o_wire = _expand_rounds_oracle(args)
    assert np.array_equal(flow, o_flow)
    assert offset.tobytes() == o_offset.tobytes()  # bitwise
    assert np.array_equal(wire, o_wire)


def test_expand_rounds_last_packet_payload():
    # one flow, 3 packets of which the last carries a short payload
    args = (
        np.array([0, 0]), np.array([0.0, 0.1]), np.array([2, 1]),
        np.array([0.1, 0.1]), np.array([0, 2]), np.array([3]),
        np.array([100.0]),
    )
    _, _, wire = expand_rounds(*args, 1460.0, 40.0)
    assert wire.tolist() == [1500, 1500, 140]


# -- power-shot scatter -------------------------------------------------


def _scatter_fixture(seed=0, n=200, delta=0.5, b0=3, b1=40):
    rng = np.random.default_rng(seed)
    starts = rng.uniform(-2.0, 18.0, n)
    sizes = rng.pareto(2.0, n) * 5e3 + 1e3
    durations = rng.lognormal(0.0, 1.0, n)
    lo = np.floor(starts / delta).astype(np.int64)
    hi = np.ceil((starts + durations) / delta).astype(np.int64)
    a = np.clip(np.maximum(lo, b0), b0, b1)
    b = np.clip(np.minimum(hi, b1), b0, b1)
    return starts, sizes, durations, a, b, delta


def _scatter_oracle(starts, sizes, durations, a, b, power, delta, b0, b1):
    """Per-flow loop through the shot's own cumulative profile."""
    shot = PowerShot(power)
    volumes = np.zeros(b1 - b0)
    for i in range(starts.size):
        for j in range(a[i], b[i]):
            left = shot.cumulative(
                np.array([delta * j - starts[i]]), sizes[i], durations[i]
            )[0]
            right = shot.cumulative(
                np.array([delta * (j + 1.0) - starts[i]]),
                sizes[i],
                durations[i],
            )[0]
            volumes[j - b0] += right - left
    return volumes


def test_powershot_scatter_matches_shot_cumulative():
    starts, sizes, durations, a, b, delta = _scatter_fixture()
    got = powershot_scatter(
        starts, sizes, durations, a, b, 0.8, delta, 3, 40
    )
    oracle = _scatter_oracle(
        starts, sizes, durations, a, b, 0.8, delta, 3, 40
    )
    assert got.tobytes() == oracle.tobytes()  # bitwise


def _edge_case_fixture(delta=0.5, b0=3, b1=40, n=400):
    """Flows clamped at ``b0`` and ``b1``, one-bin flows, and flows with
    no row (``b == a``) between flows with rows."""
    rng = np.random.default_rng(7)
    starts = rng.uniform(-2.0, 22.0, n)
    durations = rng.lognormal(0.0, 1.0, n)
    one_bin = np.arange(0, n, 4)
    starts[one_bin] = (rng.integers(b0, b1, one_bin.size) + 0.25) * delta
    durations[one_bin] = 0.5 * delta
    outside = np.arange(2, n, 8)  # wholly before b0 or after b1
    starts[outside] = np.where(outside % 16 == 2, -5.0, 25.0)
    durations[outside] = 1.0
    sizes = rng.pareto(2.0, n) * 5e3 + 1e3
    lo = np.floor(starts / delta).astype(np.int64)
    hi = np.ceil((starts + durations) / delta).astype(np.int64)
    a = np.clip(np.maximum(lo, b0), b0, b1)
    b = np.clip(np.minimum(hi, b1), b0, b1)
    rows = b > a
    assert np.any(rows & (lo < b0)) and np.any(rows & (hi > b1))
    assert np.any(b - a == 1)
    assert np.any(~rows[1:-1] & rows[:-2] & rows[2:])
    return starts, sizes, durations, a, b, delta


@pytest.mark.parametrize("power", [0.0, 0.8, 2.46])
def test_powershot_scatter_edge_cases_match_oracle(power):
    starts, sizes, durations, a, b, delta = _edge_case_fixture()
    got = powershot_scatter(
        starts, sizes, durations, a, b, power, delta, 3, 40
    )
    oracle = _scatter_oracle(
        starts, sizes, durations, a, b, power, delta, 3, 40
    )
    assert got.tobytes() == oracle.tobytes()  # bitwise


def test_powershot_scatter_peak_memory():
    # the curve is evaluated once per bin edge, in place: the kernel's
    # peak allocation stays within 9 row-sized float64 arrays
    starts, sizes, durations, a, b, delta = _scatter_fixture(
        seed=3, n=5000, delta=0.05, b0=0, b1=2500
    )
    rows = int((b - a).sum())
    assert rows >= 100_000
    tracemalloc.start()
    try:
        powershot_scatter(starts, sizes, durations, a, b, 0.8, delta, 0, 2500)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 8 * rows


def test_powershot_scatter_dispatcher_handles_empty_ranges():
    starts, sizes, durations, a, b, delta = _scatter_fixture(n=5)
    got = powershot_scatter(
        starts, sizes, durations, a, a, 0.8, delta, 3, 40  # b == a: empty
    )
    assert np.array_equal(got, np.zeros(37))


# -- EWMA ---------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 100, 4096, 4097, 10_000])
@pytest.mark.parametrize("eps", [0.01, 0.5, 1.0])
def test_ewma_matches_sequential_estimator(n, eps):
    rng = np.random.default_rng(n)
    x = rng.lognormal(1.0, 1.0, n)
    est = EwmaEstimator(eps)
    for v in x:
        est.update(v)
    assert ewma(x, eps) == pytest.approx(est.value, rel=1e-11)
