"""The pipeline's three hottest inner loops, vectorised with NumPy.

The TCP round→packet expansion, the power-shot rate-series scatter and
the EWMA replay, extracted from the engines so each has one home and one
equivalence test (``tests/test_kernels.py`` pins them against plain
Python loops):

* :func:`expand_rounds` — the per-packet schedule, bit-for-bit equal to
  a round-by-round loop.
* :func:`powershot_scatter` — evaluates the power curve once per bin
  edge and accumulates the per-row differences in flow order through
  ``np.bincount``, so it stays bit-for-bit equal to
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
    mss, header_bytes = float(mss), float(header_bytes)
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


# -- power-shot rate-series scatter ------------------------------------


def powershot_scatter(
    starts, sizes, durations, a, b, power: float, delta: float, b0: int, b1: int
):
    """Exact power-shot byte scatter over the bin range ``[b0, b1)``.

    ``a``/``b`` give each flow's half-open touched-bin range already
    clamped to the chunk.  Flow ``f`` adds ``C(j + 1) - C(j)`` to each
    bin ``j`` in its range, where ``C(j) = s·clip((Δ·j - t)/d, 0, 1)^(p+1)``
    is its cumulative volume at bin edge ``j``.  Bin ``j``'s right edge
    is bitwise bin ``j + 1``'s left edge (``Δ·float(j + 1)`` is one
    correctly-rounded product), so each flow's ``b - a + 1`` edge values
    are evaluated once and differenced.  The rows are accumulated in
    flow order, so every bin sums its floating-point contributions in
    exactly the order the reference per-flow loop performed them.
    """
    power, delta, b0, b1 = float(power), float(delta), int(b0), int(b1)
    sel = np.flatnonzero(b > a)
    if not sel.size:
        return np.zeros(b1 - b0)
    n_edges = b[sel] - a[sel] + 1
    edge_end = np.cumsum(n_edges)  # one past each flow's last edge
    total = int(edge_end[-1])
    flow = np.repeat(sel, n_edges)
    edge = np.arange(total, dtype=np.int64)
    edge += np.repeat(a[sel] - (edge_end - n_edges), n_edges)
    # C at every edge, one reference operation at a time, in place
    cum = edge.astype(np.float64)
    cum *= delta
    cum -= starts[flow]
    cum /= durations[flow]
    np.clip(cum, 0.0, 1.0, out=cum)
    np.power(cum, power + 1.0, out=cum)
    cum *= sizes[flow]
    del flow
    rows = cum[1:] - cum[:-1]
    # the difference across two flows is no row: it adds an exact +0.0
    # (a sum of non-negative increments is never -0.0) to the earlier
    # flow's bin ``b``, which may be the spare bin ``b1``
    rows[edge_end[:-1] - 1] = 0.0
    edge -= b0
    return np.bincount(edge[:-1], weights=rows, minlength=b1 - b0 + 1)[:-1]


# -- EWMA replay --------------------------------------------------------


def ewma(values: np.ndarray, eps: float) -> float:
    """Final value of ``y ← (1-eps)·y + eps·x`` over ``values``.

    Evaluated in blocked closed form (one dot product per
    ``EWMA_BLOCK`` observations), equal to the loop to ~1e-12 relative
    at any length.
    """
    x = np.asarray(values, dtype=np.float64)
    eps = float(eps)
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
