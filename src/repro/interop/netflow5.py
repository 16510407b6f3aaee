"""NetFlow v5 / cflowd flow archives: streaming reader and writer.

The on-disk layout is the classic v5 export stream — consecutive
datagrams, each a 24-byte big-endian header followed by up to 30
48-byte flow records — exactly what a cflowd-style collector appends to
a file as datagrams arrive.  Decoding follows the router semantics:
``First``/``Last`` are SysUptime milliseconds, anchored to wall time by
the header's ``(sys_uptime, unix_secs, unix_nsecs)`` triple, so both
our own archives (exported on a 0-based capture clock) and real router
archives (epoch-anchored) come back as float64 seconds.

Timestamps quantize to 1 ms on the wire — the one documented lossy step
of the NetFlow round trip (see ``tests/interop/test_roundtrip.py``).

Both directions work a block at a time, not a datagram at a time.  The
reader pulls the archive in ~1 MiB blocks, walks the block's headers
(each count gives the next header's offset), joins the record payloads
of the whole datagrams into one buffer and converts all their fields in
one pass; a datagram cut off by the end of a block is carried into the
next.  The writer lays full datagrams out as one structured array,
header and 30 records each, and writes it in ~1 MiB slices.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ..exceptions import ParameterError, TraceFormatError
from .records import FLOW_RECORD_DTYPE, check_exportable

__all__ = [
    "NETFLOW5_VERSION",
    "NETFLOW5_HEADER",
    "NETFLOW5_RECORD_SIZE",
    "MAX_RECORDS_PER_DATAGRAM",
    "NetFlow5Reader",
    "NetFlow5Writer",
    "write_netflow5",
]

NETFLOW5_VERSION = 5

#: version, count, sys_uptime(ms), unix_secs, unix_nsecs, flow_sequence,
#: engine_type, engine_id, sampling_interval — 24 bytes, big-endian.
NETFLOW5_HEADER = struct.Struct(">HHIIIIBBH")

#: The 48-byte v5 flow record, as a vectorizable structured dtype.
_RECORD_DTYPE = np.dtype(
    [
        ("srcaddr", ">u4"),
        ("dstaddr", ">u4"),
        ("nexthop", ">u4"),
        ("input", ">u2"),
        ("output", ">u2"),
        ("dPkts", ">u4"),
        ("dOctets", ">u4"),
        ("first", ">u4"),
        ("last", ">u4"),
        ("srcport", ">u2"),
        ("dstport", ">u2"),
        ("pad1", "u1"),
        ("tcp_flags", "u1"),
        ("prot", "u1"),
        ("tos", "u1"),
        ("src_as", ">u2"),
        ("dst_as", ">u2"),
        ("src_mask", "u1"),
        ("dst_mask", "u1"),
        ("pad2", ">u2"),
    ]
)

NETFLOW5_RECORD_SIZE = _RECORD_DTYPE.itemsize
assert NETFLOW5_RECORD_SIZE == 48

#: The v5 export cap: a datagram carries at most 30 records.
MAX_RECORDS_PER_DATAGRAM = 30

#: Upper sanity bound on a datagram's record count when reading; real v5
#: caps at 30, but some cflowd archives concatenate oversized datagrams.
_MAX_READ_COUNT = 8192

#: The 24-byte datagram header of :data:`NETFLOW5_HEADER`, as a dtype.
_HEADER_DTYPE = np.dtype(
    [
        ("version", ">u2"),
        ("count", ">u2"),
        ("sys_uptime", ">u4"),
        ("unix_secs", ">u4"),
        ("unix_nsecs", ">u4"),
        ("flow_sequence", ">u4"),
        ("engine_type", "u1"),
        ("engine_id", "u1"),
        ("sampling_interval", ">u2"),
    ]
)
assert _HEADER_DTYPE.itemsize == NETFLOW5_HEADER.size

#: (v5 record field, :data:`FLOW_RECORD_DTYPE` field) copied verbatim.
_WIRE_FIELDS = (
    ("srcaddr", "src_addr"),
    ("dstaddr", "dst_addr"),
    ("dPkts", "packets"),
    ("dOctets", "octets"),
    ("srcport", "src_port"),
    ("dstport", "dst_port"),
    ("prot", "protocol"),
)

#: Bytes per write, and at most per read of the archive.  The reader
#: reads ``chunk`` records' worth of bytes at a time, up to this cap, and
#: decodes every whole datagram of a read block at once.
_BLOCK_BYTES = 1 << 20

_MS = 1000.0
_U32_MAX = 0xFFFFFFFF


class NetFlow5Writer:
    """Stream :data:`FLOW_RECORD_DTYPE` chunks to a v5 archive.

    Records are written on a 0-based capture clock: ``sys_uptime``,
    ``unix_secs`` and ``unix_nsecs`` are zero, so ``First``/``Last`` are
    plain milliseconds since capture start — decoding with the standard
    anchor formula recovers them exactly (to the 1 ms quantum).

    Example::

        with NetFlow5Writer(path) as writer:
            for chunk in record_chunks:
                writer.write(chunk)
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.record_count = 0
        self._file = None

    def __enter__(self) -> "NetFlow5Writer":
        self._file = open(self.path, "wb")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def write(self, records: np.ndarray) -> None:
        """Append flow records (split into <=30-record datagrams)."""
        if self._file is None:
            raise TraceFormatError("NetFlow5Writer is not open")
        records = np.asarray(records)
        check_exportable(records, "NetFlow v5")
        if records.size == 0:
            return
        for field in ("packets", "octets"):
            if int(records[field].max()) > _U32_MAX:
                raise TraceFormatError(
                    f"NetFlow v5 counters are 32-bit; cannot encode {field} "
                    f"= {int(records[field].max())}"
                )
        first = np.rint(records["start"] * _MS)
        last = np.rint(records["end"] * _MS)
        if float(last.max()) > _U32_MAX:
            raise TraceFormatError(
                "NetFlow v5 timestamps are 32-bit milliseconds (max "
                f"{_U32_MAX / _MS:.0f}s); cannot encode a flow ending at "
                f"{float(records['end'].max()):g}s"
            )
        full = records.size - records.size % MAX_RECORDS_PER_DATAGRAM
        for lo, hi in ((0, full), (full, records.size)):
            if hi > lo:
                self._write_datagrams(
                    records[lo:hi], first[lo:hi], last[lo:hi]
                )

    def _write_datagrams(self, records, first, last) -> None:
        """Write records as datagrams of ``min(30, len(records))`` each.

        The caller passes a whole number of datagrams.  They are built as
        one structured array (header, then the records) and written from
        it in slices of about one I/O block.
        """
        per = min(records.size, MAX_RECORDS_PER_DATAGRAM)
        n = records.size // per
        out = np.zeros(
            n, dtype=[("header", _HEADER_DTYPE), ("records", _RECORD_DTYPE, (per,))]
        )
        header = out["header"]
        header["version"] = NETFLOW5_VERSION
        header["count"] = per
        # sys_uptime, unix_secs and unix_nsecs stay 0: the capture clock
        header["flow_sequence"] = (
            self.record_count + per * np.arange(n, dtype=np.uint64)
        ) & _U32_MAX
        wire = out["records"]
        for wire_name, name in _WIRE_FIELDS:
            wire[wire_name] = records[name].reshape(n, per)
        wire["first"] = first.astype(np.uint64).reshape(n, per)
        wire["last"] = last.astype(np.uint64).reshape(n, per)
        step = max(1, _BLOCK_BYTES // out.itemsize)
        for lo in range(0, n, step):
            self._file.write(out[lo: lo + step])
        self.record_count += int(records.size)


def write_netflow5(records: np.ndarray, path) -> int:
    """Write one record array as a v5 archive; returns the record count."""
    with NetFlow5Writer(path) as writer:
        writer.write(records)
        return writer.record_count


class NetFlow5Reader:
    """Bounded-memory chunk iterator over a NetFlow v5 archive.

    ``record_chunks()`` yields :data:`FLOW_RECORD_DTYPE` blocks of about
    ``chunk`` records: a block is cut at the first datagram boundary
    where it holds at least ``chunk`` records, so datagrams are never
    split and blocks may run a datagram long.  Only one read block of
    the archive (``chunk`` records' bytes, at most 1 MiB) plus one
    yielded chunk is ever in memory.

    ``errors="strict"`` (the default) raises :class:`TraceFormatError`
    on corrupt or truncated archives, naming the byte offset and the
    expected size.  ``errors="skip"`` drops malformed data instead and
    counts it in :attr:`skipped` (reset at the start of each pass): a
    bad-version datagram with a plausible count is skipped whole, a
    ``Last < First`` record is dropped individually, and truncation —
    where the datagram boundary itself is unknown — stops the pass
    after counting what the header promised.  Either way every good
    record before the damage is yielded first.
    """

    format = "netflow5"

    def __init__(
        self, path, *, chunk: int = 65536, errors: str = "strict"
    ) -> None:
        self.path = Path(path)
        self.chunk = int(chunk)
        if self.chunk < 1:
            raise TraceFormatError(f"chunk must be >= 1 record, got {chunk}")
        if errors not in ("strict", "skip"):
            raise ParameterError(
                f"errors must be 'strict' or 'skip', got {errors!r}"
            )
        self.errors = errors
        #: malformed records dropped by the most recent ``errors="skip"``
        #: pass (0 under ``errors="strict"``)
        self.skipped = 0

    def _blocks(self):
        """Yield ``(records, counts)`` for each read block of the archive.

        ``records`` are the decoded records of the block's whole
        datagrams, ``counts`` how many of them each datagram kept.  A
        datagram cut off by the end of a block waits, with its header,
        for the next one.  Damage ends the walk: the good datagrams
        before it are yielded, then the error is raised (strict) or
        counted and the pass stops (skip).
        """
        skip = self.errors == "skip"
        header_size = NETFLOW5_HEADER.size
        block_bytes = min(_BLOCK_BYTES, self.chunk * NETFLOW5_RECORD_SIZE)
        with open(self.path, "rb") as fh:
            buf = b""
            origin = 0  # file offset of buf[0]
            while True:
                more = fh.read(block_bytes)
                at_eof = not more
                buf += more
                view = memoryview(buf)
                payloads, offsets, bases, counts = [], [], [], []
                failure = None  # (message, records the damage costs)
                pos = 0
                while True:
                    left = len(buf) - pos
                    if left < header_size:
                        if at_eof and left:
                            # a torn header: no record boundary to recover
                            failure = (
                                f"{self.path}: truncated NetFlow v5 header "
                                f"at byte offset {origin + pos}: got {left} "
                                f"bytes, expected {header_size}",
                                1,
                            )
                        break
                    version, count, sys_uptime, unix_secs, unix_nsecs = (
                        NETFLOW5_HEADER.unpack_from(buf, pos)[:5]
                    )
                    offset = origin + pos
                    if not 1 <= count <= _MAX_READ_COUNT:
                        # the count sizes the datagram; without it the
                        # stream cannot be re-synchronised
                        failure = (
                            f"{self.path}: implausible record count {count} "
                            f"in the datagram header at byte offset {offset} "
                            f"(expected 1-{_MAX_READ_COUNT})",
                            1,
                        )
                        break
                    size = header_size + count * NETFLOW5_RECORD_SIZE
                    if version != NETFLOW5_VERSION:
                        if not skip:
                            failure = (
                                f"{self.path}: bad NetFlow version {version} "
                                f"at byte offset {offset}, expected "
                                f"{NETFLOW5_VERSION}",
                                count,
                            )
                            break
                        if size > left and not at_eof:
                            break
                        # count is plausible: hop over this datagram
                        self.skipped += count
                        pos = min(pos + size, len(buf))
                        continue
                    if size > left:
                        if at_eof:
                            failure = (
                                f"{self.path}: truncated NetFlow v5 datagram "
                                f"at byte offset {offset + header_size}: got "
                                f"{left - header_size} bytes, expected "
                                f"{size - header_size} ({count} records of "
                                f"{NETFLOW5_RECORD_SIZE} bytes)",
                                count,
                            )
                        break
                    payloads.append(view[pos + header_size: pos + size])
                    offsets.append(offset)
                    # router anchor: wall time of SysUptime's origin
                    bases.append(
                        float(unix_secs)
                        + float(unix_nsecs) * 1e-9
                        - float(sys_uptime) / _MS
                    )
                    counts.append(count)
                    pos += size
                if payloads:
                    yield from self._decode(payloads, offsets, bases, counts)
                if failure is not None:
                    if not skip:
                        raise TraceFormatError(failure[0])
                    self.skipped += failure[1]
                    return
                if at_eof:
                    return
                buf = buf[pos:]
                origin += pos

    def _decode(self, payloads, offsets, bases, counts):
        """Decode one read block's good datagrams as ``(records, counts)``."""
        wire = np.frombuffer(b"".join(payloads), dtype=_RECORD_DTYPE)
        counts = np.array(counts, dtype=np.int64)
        anchors = np.repeat(np.array(bases, dtype=np.float64), counts)
        block = np.empty(wire.size, dtype=FLOW_RECORD_DTYPE)
        block["start"] = anchors + wire["first"].astype(np.float64) / _MS
        block["end"] = anchors + wire["last"].astype(np.float64) / _MS
        for wire_name, name in _WIRE_FIELDS:
            block[name] = wire[wire_name]
        bad = block["end"] < block["start"]
        if not bool(np.any(bad)):
            yield block, counts
            return
        ends = np.cumsum(counts)
        if self.errors == "skip":
            dropped = np.concatenate(([0], np.cumsum(bad)))
            dropped = dropped[ends] - dropped[ends - counts]
            self.skipped += int(dropped.sum())
            yield block[~bad], counts - dropped
            return
        index = int(np.argmax(bad))
        datagram = int(np.searchsorted(ends, index, side="right"))
        lo = int(ends[datagram] - counts[datagram])
        if datagram:
            yield block[:lo], counts[:datagram]
        raise TraceFormatError(
            f"{self.path}: record {index - lo} of the datagram at "
            f"byte offset {offsets[datagram]} ends before it starts "
            "(Last < First)"
        )

    def record_chunks(self):
        """Yield decoded :data:`FLOW_RECORD_DTYPE` blocks (~``chunk``)."""
        self.skipped = 0
        pending: list[np.ndarray] = []
        pending_size = 0
        for records, counts in self._blocks():
            # cut at each datagram boundary where pending reaches chunk
            ends = np.cumsum(counts)
            lo = 0
            need = self.chunk - pending_size
            while True:
                datagram = int(np.searchsorted(ends, lo + need))
                if datagram == ends.size:
                    break
                cut = int(ends[datagram])
                pending.append(records[lo:cut])
                yield np.concatenate(pending)
                pending, pending_size = [], 0
                lo, need = cut, self.chunk
            if lo < records.size:
                pending.append(records[lo:])
                pending_size += records.size - lo
        if pending:
            yield np.concatenate(pending)

    __iter__ = record_chunks
