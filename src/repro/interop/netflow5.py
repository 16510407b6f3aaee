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
reader pulls the archive in 128 KiB blocks and walks the block's headers
(each count gives the next header's offset).  It joins a chunk's
datagrams into one record buffer per read block and converts the fields
a pass asks for in one go; a datagram cut off by the end of a block is
carried into the next.  The writer lays full datagrams out as one
structured array, header and 30 records each, and writes it in ~1 MiB
slices.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ..exceptions import ParameterError, TraceFormatError
from .records import FLOW_RECORD_DTYPE, SCAN_RECORD_DTYPE, check_exportable

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

#: The leading version and count of a datagram header.
_VERSION_COUNT = struct.Struct(">HH")

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

#: Bytes per write.
_WRITE_BYTES = 1 << 20

#: Bytes per read of the archive, at most.  The reader reads ``chunk``
#: records' worth of bytes at a time, up to this cap, and converts a
#: read block's datagrams together.  A 128 KiB block stays in cache
#: while its datagrams are walked and converted; with 1 MiB blocks a
#: decode ran about 1.5x slower on a 2-CPU x86 host.
_BLOCK_BYTES = 1 << 17

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
        step = max(1, _WRITE_BYTES // out.itemsize)
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
    where it holds at least ``chunk`` records as read, so datagrams are
    never split and blocks may run a datagram long (records dropped
    under ``errors="skip"`` can leave a block short).
    ``record_chunks(scan=True)`` walks the same datagrams but converts
    only the :data:`~repro.interop.records.SCAN_RECORD_DTYPE` columns a
    clock-range scan reads.  Only the raw read blocks (``chunk``
    records' bytes each, at most 128 KiB) of one chunk's datagrams, one
    read block's joined wire records and the block decoded from them
    are ever in memory.

    ``errors="strict"`` (the default) raises :class:`TraceFormatError`
    on corrupt or truncated archives, naming the byte offset and the
    expected size.  ``errors="skip"`` drops malformed data instead and
    counts it in :attr:`skipped` (reset at the start of each pass): a
    bad-version datagram with a plausible count is skipped whole, a
    ``Last < First`` record is dropped individually, and truncation —
    where the datagram boundary itself is unknown — stops the pass
    after counting what the header promised.  Either way every good
    record before the damage is yielded first.  A scan and a full
    decode run these checks in one walk, so two passes over one
    archive keep and drop the same records.
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

    def _damage(self, message: str, records: int) -> None:
        """Raise on damage (strict), or count what it costs (skip)."""
        if self.errors != "skip":
            raise TraceFormatError(message)
        self.skipped += records

    def _datagrams(self):
        """Yield each read block's good datagrams as ``(buf, origin, pos, counts)``.

        Datagram ``i`` starts at ``buf[pos[i]]`` (file byte ``origin +
        pos[i]``) and holds ``counts[i]`` records; both are int64
        arrays.  A datagram cut off by the end of a read block waits,
        with its header, for the next one.  Damage ends the walk, after
        every good datagram before it: the error is raised (strict) or
        counted (skip).
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
                positions, counts = [], []
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
                    version, count = _VERSION_COUNT.unpack_from(buf, pos)
                    if not 1 <= count <= _MAX_READ_COUNT:
                        # the count sizes the datagram; without it the
                        # stream cannot be re-synchronised
                        failure = (
                            f"{self.path}: implausible record count {count} "
                            "in the datagram header at byte offset "
                            f"{origin + pos} (expected 1-{_MAX_READ_COUNT})",
                            1,
                        )
                        break
                    size = header_size + count * NETFLOW5_RECORD_SIZE
                    if version != NETFLOW5_VERSION:
                        if not skip:
                            failure = (
                                f"{self.path}: bad NetFlow version {version} "
                                f"at byte offset {origin + pos}, expected "
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
                                f"at byte offset {origin + pos + header_size}"
                                f": got {left - header_size} bytes, expected "
                                f"{size - header_size} ({count} records of "
                                f"{NETFLOW5_RECORD_SIZE} bytes)",
                                count,
                            )
                        break
                    positions.append(pos)
                    counts.append(count)
                    pos += size
                if positions:
                    yield (
                        buf,
                        origin,
                        np.array(positions, dtype=np.int64),
                        np.array(counts, dtype=np.int64),
                    )
                if failure is not None:
                    if not skip:
                        raise TraceFormatError(failure[0])
                    self.skipped += failure[1]
                    return
                if at_eof:
                    return
                buf = buf[pos:]
                origin += pos

    @staticmethod
    def _convert(buf, pos, counts, out) -> None:
        """Convert the datagrams at ``buf[pos]`` into ``out``'s columns."""
        header_size = NETFLOW5_HEADER.size
        view = memoryview(buf)
        heads = np.frombuffer(
            b"".join(view[p: p + header_size] for p in pos.tolist()),
            dtype=_HEADER_DTYPE,
        )
        wire = np.frombuffer(
            b"".join(
                view[p + header_size: p + header_size + c * NETFLOW5_RECORD_SIZE]
                for p, c in zip(pos.tolist(), counts.tolist())
            ),
            dtype=_RECORD_DTYPE,
        )
        # router anchor: wall time of each datagram's SysUptime origin
        anchors = np.repeat(
            heads["unix_secs"].astype(np.float64)
            + heads["unix_nsecs"].astype(np.float64) * 1e-9
            - heads["sys_uptime"].astype(np.float64) / _MS,
            counts,
        )
        out["start"] = anchors + wire["first"].astype(np.float64) / _MS
        out["end"] = anchors + wire["last"].astype(np.float64) / _MS
        for wire_name, name in _WIRE_FIELDS:
            if name in out.dtype.names:
                out[name] = wire[wire_name]

    def _decode(self, pending, dtype):
        """Decode the pending datagrams into one block of ``dtype``.

        ``pending`` holds ``_datagrams`` items, or slices of them.  The
        list is emptied first, so the raw blocks it holds are freed
        before the decoded block is used and a failed decode is not
        retried.  Each read block's datagrams are joined and converted
        together, so at most one read block of wire records is held
        besides the raw blocks and the decoded one.
        """
        pieces = pending[:]
        pending.clear()
        sizes = [int(counts.sum()) for *_, counts in pieces]
        block = np.empty(sum(sizes), dtype=dtype)
        lo = 0
        for (buf, _origin, pos, counts), size in zip(pieces, sizes):
            self._convert(buf, pos, counts, block[lo: lo + size])
            lo += size
        bad = block["end"] < block["start"]
        if not bool(np.any(bad)):
            return block
        if self.errors == "skip":
            self.skipped += int(np.count_nonzero(bad))
            return block[~bad]
        index = int(np.argmax(bad))
        for (_buf, origin, pos, counts), size in zip(pieces, sizes):
            if index < size:
                break
            index -= size
        ends = np.cumsum(counts)
        datagram = int(np.searchsorted(ends, index, side="right"))
        record = index - int(ends[datagram] - counts[datagram])
        raise TraceFormatError(
            f"{self.path}: record {record} of the datagram at byte offset "
            f"{origin + int(pos[datagram])} ends before it starts "
            "(Last < First)"
        )

    def record_chunks(self, scan: bool = False):
        """Yield decoded blocks of about ``chunk`` records.

        Blocks hold whole :data:`FLOW_RECORD_DTYPE` records, or with
        ``scan=True`` only the :data:`SCAN_RECORD_DTYPE` columns.
        """
        self.skipped = 0
        dtype = SCAN_RECORD_DTYPE if scan else FLOW_RECORD_DTYPE
        pending, held = [], 0
        try:
            for buf, origin, pos, counts in self._datagrams():
                # cut at each datagram where the block reaches chunk
                ends = np.cumsum(counts)
                lo = 0
                while True:
                    base = int(ends[lo - 1]) if lo else 0
                    cut = int(np.searchsorted(ends, base + self.chunk - held))
                    if cut == ends.size:
                        pending.append((buf, origin, pos[lo:], counts[lo:]))
                        held += int(ends[-1]) - base
                        break
                    pending.append(
                        (buf, origin, pos[lo: cut + 1], counts[lo: cut + 1])
                    )
                    held = 0
                    yield self._decode(pending, dtype)
                    lo = cut + 1
                    if lo == ends.size:
                        break
        except TraceFormatError:
            # a bad record before the damage is the archive's first error
            if pending:
                self._decode(pending, dtype)
            raise
        if pending:
            yield self._decode(pending, dtype)

    __iter__ = record_chunks
