"""Flow keys: the paper's two flow definitions (section III).

1. **5-tuple**: source/destination address, source/destination port,
   protocol — a TCP connection or UDP stream.
2. **destination prefix**: the ``/24`` (or any ``/n``) destination address
   prefix — a coarser aggregate that "dilutes" transport dynamics and is an
   order of magnitude cheaper to track (section VI-A).

The model itself is agnostic to the definition; these keys parameterise the
flow exporter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..exceptions import ParameterError

__all__ = [
    "FiveTuple",
    "PrefixKey",
    "FIVE_TUPLE_FIELDS",
    "five_tuple_key_dtype",
    "format_ipv4",
    "parse_ipv4",
    "prefix_of",
    "pack_packet_keys",
    "packed_key_order",
    "unpack_packet_keys",
    "PROTO_TCP",
    "PROTO_UDP",
]

PROTO_TCP = 6
PROTO_UDP = 17

#: Field order of the 5-tuple — also the lexicographic comparison order the
#: exporter's flow grouping sorts by.
FIVE_TUPLE_FIELDS = ("src_addr", "dst_addr", "src_port", "dst_port", "protocol")


def five_tuple_key_dtype(packet_dtype: np.dtype) -> np.dtype:
    """Structured per-flow key dtype matching the packet field widths."""
    return np.dtype([(f, packet_dtype[f]) for f in FIVE_TUPLE_FIELDS])


def pack_packet_keys(packets: np.ndarray, key: str, prefix_length: int = 24):
    """Pack flow keys into two uint64 words ``(hi, lo)``.

    The pack is order-isomorphic to lexicographic comparison of the key
    fields: for ``key="five_tuple"``, ``hi = src_addr << 32 | dst_addr``
    and ``lo = src_port << 24 | dst_port << 8 | protocol``, so sorting by
    ``(hi, lo)`` orders keys exactly like ``np.unique`` on the structured
    five-tuple view — but with two machine-word comparisons instead of a
    23-byte struct compare.  For ``key="prefix"``, ``hi`` is the /n
    destination prefix and ``lo`` is zero.
    """
    if key == "five_tuple":
        hi = (
            packets["src_addr"].astype(np.uint64) << np.uint64(32)
        ) | packets["dst_addr"].astype(np.uint64)
        lo = (
            (packets["src_port"].astype(np.uint64) << np.uint64(24))
            | (packets["dst_port"].astype(np.uint64) << np.uint64(8))
            | packets["protocol"].astype(np.uint64)
        )
        return hi, lo
    if key == "prefix":
        hi = prefix_of(packets["dst_addr"], prefix_length).astype(np.uint64)
        return hi, np.zeros(hi.size, dtype=np.uint64)
    raise ParameterError(
        f"unknown flow key {key!r}; use 'five_tuple' or 'prefix'"
    )


def _stream_bits(words, bases, spans, rows, pos, take):
    """Bits ``[pos, pos + take)`` of each row's key stream, as a uint64.

    A row's key stream is its ``word - base`` for each word in turn, the
    most significant of each word's ``span`` low bits first; ``pos``
    counts from the stream's start.  ``rows`` selects rows (``None``:
    all of them).
    """
    out = None
    start = 0
    for word, base, span in zip(words, bases, spans):
        lo, hi = max(pos, start), min(pos + take, start + span)
        if lo < hi:
            bits = (word if rows is None else word[rows]) - base
            if start + span > hi:
                bits >>= np.uint64(start + span - hi)
            if lo > start:
                bits &= np.uint64((1 << (hi - lo)) - 1)
            if pos + take > hi:
                bits <<= np.uint64(pos + take - hi)
            if out is None:
                out = bits
            else:
                out |= bits
        start += span
    if out is None:
        size = words[0].size if rows is None else rows.size
        out = np.zeros(size, dtype=np.uint64)
    return out


def _sorted_rows(key, k):
    """``(order, key)``: rows by ``key`` (below ``2**(64 - k)``), then index.

    One ``np.sort`` of ``key << k | index``; on uint64 it runs numpy's
    vectorised (SIMD) sort, several times faster than a stable argsort
    or a digit lexsort.  ``key`` is consumed and comes back sorted.
    """
    key <<= np.uint64(k)
    key |= np.arange(key.size, dtype=np.uint64)
    key.sort()
    # the index bits hold values below 2**63: an intp view reads them
    order = (key & np.uint64((1 << k) - 1)).view(np.intp)
    key >>= np.uint64(k)
    return order, key


def _lead_sort(word):
    """``(order, lead)``: rows by the lead of ``word``, then by row index.

    The lead is ``word - word.min()`` shifted right only as far as it
    must be to leave ``k = bit_length(n - 1)`` low bits of a uint64 for
    the row index; it is monotone in ``word`` and comes back sorted.
    """
    n = word.size
    if not n:
        return np.arange(0, dtype=np.intp), np.zeros(0, dtype=np.uint64)
    k = (n - 1).bit_length()
    base = word.min()
    span = int(word.max() - base).bit_length()
    lead = _stream_bits([word], [base], [span], None, 0, min(span, 64 - k))
    return _sorted_rows(lead, k)


def packed_key_order(*words) -> np.ndarray:
    """Stable order by uint64 ``words`` (most significant first).

    The permutation is **identical** to ``np.lexsort`` with the words
    reversed (``packed_key_order(hi, lo) == np.lexsort((lo, hi))``).  The
    key is read as one bit stream (each word's ``word - min``, its
    varying bits only) and ordered a window at a time by
    :func:`_sorted_rows`: the first window is as many leading bits as
    fit beside the row index.  Only adjacent rows equal on the bits read
    so far are compared on the words that go on; each later window
    re-sorts just the runs holding two keys, by (run, next bits, place),
    and skips the words on which no such run differs.  Its callers need
    the exporter's canonical (key, start) order:
    :meth:`~repro.measurement.streaming.StreamingMeasurement.seal` and
    ``assemble`` over flows, the export records' start order and the
    accountant's collision fallbacks; the accountant's per-packet
    grouping sorts by the lead of a key mix itself.  Fewer than
    ``2**31`` rows.
    """
    words = [np.asarray(word, dtype=np.uint64) for word in words]
    n = words[0].size
    order = np.arange(n, dtype=np.intp)
    if n < 2:
        return order
    bases = [word.min() for word in words]
    spans = [
        int(word.max() - base).bit_length() for word, base in zip(words, bases)
    ]
    ends = np.cumsum(spans).tolist()
    at, run, pos = None, None, 0  # rows still tied; their runs; bits read
    while True:
        m = n if at is None else at.size
        k = (m - 1).bit_length()
        run_bits = 0 if run is None else int(run[-1]).bit_length()
        take = min(ends[-1] - pos, 64 - k - run_bits)
        rows = None if at is None else order[at]
        key = _stream_bits(words, bases, spans, rows, pos, take)
        if run is not None:
            key |= run.astype(np.uint64) << np.uint64(take)
        place, key = _sorted_rows(key, k)
        if rows is None:
            order = place
        else:
            order[at] = rows[place]
        pos += take
        tie = np.flatnonzero(key[1:] == key[:-1])
        if pos == ends[-1] or not tie.size:
            break
        a = order[tie] if at is None else order[at[tie]]
        b = order[tie + 1] if at is None else order[at[tie + 1]]
        differ = np.zeros(tie.size, dtype=bool)
        for word, end in zip(words, ends):
            if end > pos:
                split = word[a] != word[b]
                if not differ.any() and not split.any():
                    pos = end  # no run differs on this word: skip it
                differ |= split
        if not differ.any():
            break
        # keep the runs that hold two keys, renumbered densely
        group = np.cumsum(np.concatenate(([0], key[1:] != key[:-1])))
        mixed = np.zeros(int(group[-1]) + 1, dtype=bool)
        mixed[group[tie[differ]]] = True
        keep = np.flatnonzero(mixed[group])
        at = keep if at is None else at[keep]
        group = group[keep]
        run = np.cumsum(np.concatenate(([0], group[1:] != group[:-1])))
    return order


def unpack_packet_keys(
    hi: np.ndarray,
    lo: np.ndarray,
    key: str,
    packet_dtype: np.dtype,
    prefix_length: int = 24,
) -> np.ndarray:
    """Invert :func:`pack_packet_keys` into the exporter's key payload.

    Returns a structured five-tuple array (same dtype as the legacy
    ``np.unique`` grouping produced) or a uint32 prefix array.
    """
    if key == "five_tuple":
        out = np.empty(hi.size, dtype=five_tuple_key_dtype(packet_dtype))
        out["src_addr"] = (hi >> np.uint64(32)).astype(np.uint32)
        out["dst_addr"] = (hi & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        out["src_port"] = (lo >> np.uint64(24)).astype(np.uint16)
        out["dst_port"] = ((lo >> np.uint64(8)) & np.uint64(0xFFFF)).astype(
            np.uint16
        )
        out["protocol"] = (lo & np.uint64(0xFF)).astype(np.uint8)
        return out
    if key == "prefix":
        return hi.astype(np.uint32)
    raise ParameterError(
        f"unknown flow key {key!r}; use 'five_tuple' or 'prefix'"
    )


def format_ipv4(addr: int) -> str:
    """Dotted-quad string of a 32-bit address integer."""
    addr = int(addr)
    if not 0 <= addr <= 0xFFFFFFFF:
        raise ParameterError(f"IPv4 address out of range: {addr}")
    return ".".join(str((addr >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def parse_ipv4(text: str) -> int:
    """32-bit integer of a dotted-quad string."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ParameterError(f"not a dotted quad: {text!r}")
    addr = 0
    for part in parts:
        try:
            octet = int(part)
        except ValueError as exc:
            raise ParameterError(f"not a dotted quad: {text!r}") from exc
        if not 0 <= octet <= 255:
            raise ParameterError(f"octet out of range in {text!r}")
        addr = (addr << 8) | octet
    return addr


def prefix_of(addr, length: int = 24) -> np.ndarray:
    """Keep the ``length`` most significant bits of address(es).

    ``prefix_of(a, 24)`` groups packets by /24 destination prefix, the
    paper's second flow definition.  Works on scalars and arrays.
    """
    if not 0 <= length <= 32:
        raise ParameterError(f"prefix length must be in [0, 32], got {length}")
    shift = 32 - length
    return np.asarray(addr, dtype=np.uint32) >> np.uint32(shift)


class FiveTuple(NamedTuple):
    """Flow definition 1: (src addr, dst addr, src port, dst port, proto)."""

    src_addr: int
    dst_addr: int
    src_port: int
    dst_port: int
    protocol: int

    def __str__(self) -> str:
        proto = {PROTO_TCP: "tcp", PROTO_UDP: "udp"}.get(self.protocol, str(self.protocol))
        return (
            f"{format_ipv4(self.src_addr)}:{self.src_port} -> "
            f"{format_ipv4(self.dst_addr)}:{self.dst_port} ({proto})"
        )


@dataclass(frozen=True)
class PrefixKey:
    """Flow definition 2: destination address prefix (default /24)."""

    prefix: int
    length: int = 24

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ParameterError(f"prefix length must be in [0,32], got {self.length}")
        if self.prefix >> self.length:
            raise ParameterError(
                f"prefix {self.prefix} does not fit in {self.length} bits"
            )

    @property
    def network_address(self) -> int:
        """The lowest address covered by the prefix."""
        return self.prefix << (32 - self.length)

    def __str__(self) -> str:
        return f"{format_ipv4(self.network_address)}/{self.length}"

    def covers(self, addr: int) -> bool:
        """True if ``addr`` falls inside this prefix."""
        return int(prefix_of(addr, self.length)) == self.prefix
