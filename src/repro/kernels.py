"""The pipeline's three hottest inner loops, vectorised with NumPy.

The TCP round→packet expansion, the power-shot rate-series scatter and
the EWMA replay, extracted from the engines so each has one home and one
equivalence test (``tests/test_kernels.py`` pins them against plain
Python loops):

* :func:`expand_rounds` — the per-packet schedule, bit-for-bit equal to
  a round-by-round loop.
* :func:`powershot_scatter` — accumulates per-row increments in flow
  order through ``np.bincount``, so it stays bit-for-bit equal to
  ``reference_rate_series`` (the engines only use it for
  :class:`~repro.core.shots.PowerShot`; table-interpolated shots keep
  the generic path).
* :func:`ewma` — the blocked closed form of ``y ← (1-eps)·y + eps·x``,
  equal to the sequential recurrence (``EwmaEstimator``) to ~1e-12
  relative.

Nothing here imports an engine, so the module is safely importable from
worker processes before the heavyweight packages.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "expand_rounds",
    "powershot_scatter",
    "ewma",
]

#: Observations folded per closed-form step in the EWMA closed form.
#: Bounds the weight ``(1-eps)^k`` evaluated in one block so it cannot
#: underflow even for the smallest gains.
EWMA_BLOCK = 4096


# -- TCP round -> packet expansion -------------------------------------


def _expand_rounds_numpy(
    round_flow,
    round_start,
    round_count,
    round_length,
    round_sent_before,
    total_packets,
    last_payload,
    mss,
    header_bytes,
):
    total = int(round_count.sum())
    n_rounds = round_count.size
    pkt_round = np.repeat(np.arange(n_rounds), round_count)
    pkt_flow = round_flow[pkt_round]

    within_round = np.arange(total, dtype=np.int64)
    first_of_round = np.cumsum(round_count) - round_count  # no length-copy
    within_round -= first_of_round[pkt_round]

    pace = round_length / round_count  # per round, gathered per packet
    pkt_offset = within_round * pace[pkt_round]
    pkt_offset += round_start[pkt_round]

    within_flow = round_sent_before[pkt_round]
    within_flow += within_round
    is_last = within_flow == total_packets[pkt_flow] - 1
    payload = np.where(is_last, last_payload[pkt_flow], mss)
    wire = np.minimum(payload + header_bytes, 65535.0)
    return pkt_flow, pkt_offset, wire.astype(np.uint16)


def expand_rounds(
    round_flow,
    round_start,
    round_count,
    round_length,
    round_sent_before,
    total_packets,
    last_payload,
    mss: float,
    header_bytes: float,
):
    """Expand per-round send records into the flat per-packet schedule.

    Returns ``(pkt_flow, pkt_offset, wire_size)`` — flow index (int64),
    offset from the flow start (float64) and wire size (uint16) per
    packet, packets laid out round by round.
    """
    return _expand_rounds_numpy(
        round_flow,
        round_start,
        round_count,
        round_length,
        round_sent_before,
        total_packets,
        last_payload,
        float(mss),
        float(header_bytes),
    )


# -- power-shot rate-series scatter ------------------------------------


def _powershot_scatter_numpy(
    starts, sizes, durations, a, b, power, delta, b0, b1
):
    volumes = np.zeros(b1 - b0)
    sel = b > a
    if not np.any(sel):
        return volumes
    counts = b[sel] - a[sel]
    total = int(counts.sum())
    flow = np.repeat(np.flatnonzero(sel), counts)
    row_start = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total) - np.repeat(row_start, counts)
    gbin = np.repeat(a[sel], counts) + within

    t = starts[flow]
    s = sizes[flow]
    d = durations[flow]
    gb = gbin.astype(np.float64)
    p1 = power + 1.0
    # Same edge values the reference builds via ``delta * arange``:
    # delta * j is one correctly-rounded product.
    v_left = np.clip((delta * gb - t) / d, 0.0, 1.0)
    v_right = np.clip((delta * (gb + 1.0) - t) / d, 0.0, 1.0)
    c_left = s * np.power(v_left, p1)
    c_right = s * np.power(v_right, p1)
    return np.bincount(gbin - b0, weights=c_right - c_left, minlength=b1 - b0)


def powershot_scatter(
    starts, sizes, durations, a, b, power: float, delta: float, b0: int, b1: int
):
    """Exact power-shot byte scatter over the bin range ``[b0, b1)``.

    ``a``/``b`` give each flow's half-open touched-bin range already
    clamped to the chunk.  Rows are accumulated in flow order, so every
    bin sums its floating-point contributions in exactly the order the
    reference per-flow loop performed them.
    """
    args = (
        np.ascontiguousarray(starts, dtype=np.float64),
        np.ascontiguousarray(sizes, dtype=np.float64),
        np.ascontiguousarray(durations, dtype=np.float64),
        np.ascontiguousarray(a, dtype=np.int64),
        np.ascontiguousarray(b, dtype=np.int64),
        float(power),
        float(delta),
        int(b0),
        int(b1),
    )
    return _powershot_scatter_numpy(*args)


# -- EWMA replay --------------------------------------------------------


def _ewma_numpy(x, eps):
    q = 1.0 - eps
    y = float(x[0])
    if x.size == 1:
        return y
    weights = eps * np.power(q, np.arange(EWMA_BLOCK - 1, -1, -1.0))
    decay_full = q**EWMA_BLOCK
    for i0 in range(1, x.size, EWMA_BLOCK):
        block = x[i0: i0 + EWMA_BLOCK]
        m = block.size
        if m == EWMA_BLOCK:
            y = decay_full * y + float(np.dot(weights, block))
        else:
            y = (q**m) * y + float(np.dot(weights[-m:], block))
    return y


def ewma(values: np.ndarray, eps: float) -> float:
    """Final value of ``y ← (1-eps)·y + eps·x`` over ``values``.

    Evaluated in blocked closed form (one dot product per
    ``EWMA_BLOCK`` observations), equal to the loop to ~1e-12 relative
    at any length.
    """
    x = np.ascontiguousarray(values, dtype=np.float64)
    return float(_ewma_numpy(x, float(eps)))
