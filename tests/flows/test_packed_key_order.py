"""``packed_key_order`` is ``np.lexsort`` byte for byte.

The order sorts one uint64 per row — the key's leading bits above the
row index — and then re-sorts only the runs of rows that share the bits
read so far but hold different keys, by their next bits.  Every flow
order of the program (sealing, assembling, the export records' start
order, the collision fallbacks of the accountant) relies on the
permutation being the stable lexsort's, so these properties compare the
two on the inputs that stress each path: tiny alphabets (ties),
full-span 64-bit words, words that differ only below the index bits,
a few wide values over many narrow ones (every row re-sorted), words
whose bits straddle a window, constant words and sizes at powers of two.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flows.keys import packed_key_order

#: Row counts: empty, one row, and both sides of index-width steps.
sizes = st.one_of(
    st.sampled_from([0, 1, 2]),
    st.integers(1, 9).flatmap(
        lambda k: st.sampled_from([2**k - 1, 2**k, 2**k + 1])
    ),
    st.integers(0, 600),
)

KINDS = ("tiny", "full", "low_bits", "constant", "top_and_tiny", "few_wide", "mid")


def make_word(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "tiny":  # ties
        return rng.integers(0, 3, n).astype(np.uint64)
    if kind == "full":  # the whole 64-bit range, extremes included
        word = rng.integers(0, 2**64, n, dtype=np.uint64)
        if n >= 2:
            word[:2] = [0, 2**64 - 1]
        return word
    if kind == "low_bits":
        # a full 64-bit span whose rows differ mostly below the index
        # bits: the lead drops those bits, so its runs mix keys
        top = rng.integers(0, 2, n).astype(np.uint64) << np.uint64(63)
        return top | rng.integers(0, 4, n).astype(np.uint64)
    if kind == "few_wide":  # few distinct full-span values: long runs
        return rng.integers(0, 2**64, 3, dtype=np.uint64)[rng.integers(0, 3, n)]
    if kind == "mid":  # a window ends inside these 30 bits
        return rng.integers(0, 2**30, n).astype(np.uint64)
    if kind == "constant":
        return np.full(n, rng.integers(0, 2**64, dtype=np.uint64))
    # a few values spread over the top bits, each with tiny offsets
    top = rng.integers(0, 4, n).astype(np.uint64) << np.uint64(62)
    return top | rng.integers(0, 2, n).astype(np.uint64)


@settings(max_examples=400, deadline=None)
@given(
    n=sizes,
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_equals_lexsort(n, kinds, seed):
    rng = np.random.default_rng(seed)
    words = [make_word(kind, n, rng) for kind in kinds]
    got = packed_key_order(*words)
    expected = np.lexsort(tuple(reversed(words)))
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def test_repaired_runs_stay_in_lead_order():
    # two exact leads (hi), each a run holding several keys (lo); the
    # repair must not mix the runs, however their later words compare
    n = 16
    hi = np.arange(n, dtype=np.uint64) % np.uint64(2)
    lo = np.arange(n, 0, -1, dtype=np.uint64)
    expected = np.lexsort((lo, hi))
    assert packed_key_order(hi, lo).tobytes() == expected.tobytes()


def test_a_lead_that_lost_bits_is_repaired_on_the_first_word():
    # a full-span word whose rows differ only in the low bit the lead
    # drops: every run holds two keys
    n = 16
    word = np.array(
        [(i % 2) << 63 | (i // 2) % 2 for i in range(n)], dtype=np.uint64
    )
    expected = np.lexsort((word,))
    assert packed_key_order(word).tobytes() == expected.tobytes()
