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


def packed_key_order(*words, within=None) -> np.ndarray:
    """Stable order by uint64 ``words`` (most significant first) via radix.

    ``np.argsort`` falls back to comparison sorting for 64-bit integers
    but uses an O(n) radix sort for 16-bit ones, so the words are
    decomposed into uint16 digits and sorted least-significant-digit
    first (``np.lexsort`` with the primary key last *is* an LSD radix
    sort when every pass is stable).  Constant digits — fixed
    address-pool prefixes, the all-zero upper half of prefix keys — are
    skipped outright.  Because every pass is stable, the permutation of
    ``packed_key_order(hi, lo)`` is **identical** to
    ``np.lexsort((lo, hi))``, just several times faster on packet-scale
    inputs.  Its callers need the exporter's canonical (key, start)
    order: :meth:`~repro.measurement.streaming.StreamingMeasurement.seal`
    and ``assemble`` over flows, and the export records' start order;
    the per-packet grouping of the streaming accountant sorts by a key
    mix instead, and by ``(mix, hi, lo)`` only on a mix collision.

    ``within`` (e.g. timestamps) is the least significant sort key; omit
    it when rows of equal key are already in the desired relative order
    (stability preserves it).
    """
    n = words[0].size
    digits = []
    for word in reversed(words):  # significance ascending
        cols = np.ascontiguousarray(word, dtype=np.uint64).view(
            np.uint16
        ).reshape(n, 4)
        order = range(4) if np.little_endian else range(3, -1, -1)
        for j in order:
            col = cols[:, j]
            if n and col.size and int(col.min()) != int(col.max()):
                digits.append(col)
    if within is not None:
        digits.insert(0, within)
    if not digits:
        return np.arange(n, dtype=np.intp)
    if len(digits) == 1:
        return np.argsort(digits[0], kind="stable")
    return np.lexsort(tuple(digits))


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
