"""Adapters: imported telemetry -> ``MeasurementEngine.measure_chunks``.

Flow archives (NetFlow v5, IPFIX) decode into flow *records* — the
exporting router's own idle-timeout accounting.  To re-apply the
paper's flow semantics uniformly, :class:`FlowPacketStream` expands
each record back into its packets (uniformly spaced over the record's
lifetime, octets split as evenly as the byte granularity allows) and
streams time-ordered ``PACKET_DTYPE`` chunks into the measurement
engine's open-flow carry table.  Expansion preserves the record's
start, end, packet count and octet total exactly, and keeps
intra-record gaps at ``duration/(packets-1)`` — no larger than the
idle timeout that produced the record — so re-measuring with the same
timeout reproduces the archive's flows (up to the wire format's
timestamp quantization).

Opening a flow archive reads it twice.  :func:`scan_record_chunks`
first walks it for the record count, clock range and start order,
and the format reader converts only the scan columns on that pass;
then iteration decodes each record once in full and expands it.  Both
passes run the reader's one walker, so under ``errors="skip"`` they
keep and drop the same records.

Packet captures (pcap) and native ``.rptr`` traces skip the expansion
and stream through :class:`PacketChunkStream`, which applies the same
clock rebasing and cross-chunk ordering checks.

Both streams carry ``duration`` and ``link_capacity`` attributes, so
``measure_chunks(stream)`` picks them up without re-plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..exceptions import ParameterError, TraceFormatError
from ..trace.format import PACKET_DTYPE
from ..trace.io import TraceReader
from .ipfix import IpfixReader
from .netflow5 import NetFlow5Reader
from .pcap import PcapReader
from .records import FLOW_RECORD_DTYPE, start_order

__all__ = [
    "IMPORT_FORMATS",
    "ScanInfo",
    "detect_format",
    "expand_flow_records",
    "FlowPacketStream",
    "PacketChunkStream",
    "open_import_stream",
    "scan_record_chunks",
]

#: Formats ``open_import_stream`` accepts (plus ``"auto"``).
IMPORT_FORMATS = ("rptr", "netflow5", "ipfix", "pcap")

#: Timestamps above this are taken to be epoch seconds (the threshold
#: is ~3 years; capture-clock archives start near zero, epoch-anchored
#: ones near 1.7e9).
EPOCH_THRESHOLD = 1e8

_PCAP_MAGICS = (
    b"\xa1\xb2\xc3\xd4", b"\xd4\xc3\xb2\xa1",
    b"\xa1\xb2\x3c\x4d", b"\x4d\x3c\xb2\xa1",
)


def detect_format(path) -> str:
    """Sniff a telemetry file's format from its leading magic bytes."""
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(4)
    if len(head) < 4:
        # A missing or truncated file is a caller mistake (wrong path,
        # empty export), not a format mismatch — flag it as such.
        detail = "file is empty" if not head else (
            f"file holds only {len(head)} byte"
            f"{'' if len(head) == 1 else 's'}"
        )
        raise ParameterError(
            f"{path}: too short to identify a telemetry format ({detail}; "
            "every supported format needs at least 4 magic bytes)"
        )
    if head == b"RPTR":
        return "rptr"
    if head in _PCAP_MAGICS:
        return "pcap"
    version = int.from_bytes(head[:2], "big")
    if version == 5:
        return "netflow5"
    if version == 10:
        return "ipfix"
    raise TraceFormatError(
        f"{path}: unrecognised telemetry format (leading bytes "
        f"{head!r}); expected a .rptr trace, a pcap capture, a NetFlow "
        "v5 archive, or an IPFIX archive"
    )


@dataclass(frozen=True)
class ScanInfo:
    """One bounded-memory pass over an archive: counts and clock range."""

    records: int
    packets: int
    octets: int
    t_min: float
    t_max: float
    starts_sorted: bool

    @property
    def empty(self) -> bool:
        return self.records == 0


def scan_record_chunks(chunks) -> ScanInfo:
    """Scan flow-record chunks for counts, clock range and sortedness.

    The blocks need only the
    :data:`~repro.interop.records.SCAN_RECORD_DTYPE` columns, which a
    format reader's ``record_chunks(scan=True)`` converts alone.
    """
    records = packets = octets = 0
    t_min = np.inf
    t_max = -np.inf
    prev_last = -np.inf
    starts_sorted = True
    for block in chunks:
        if block.size == 0:
            continue
        records += int(block.size)
        packets += int(block["packets"].sum())
        octets += int(block["octets"].sum())
        starts = block["start"]
        t_min = min(t_min, float(starts.min()))
        t_max = max(t_max, float(block["end"].max()))
        if starts_sorted:
            if float(starts[0]) < prev_last or bool(
                np.any(np.diff(starts) < 0)
            ):
                starts_sorted = False
        prev_last = float(starts[-1])
    if records == 0:
        return ScanInfo(0, 0, 0, 0.0, 0.0, True)
    return ScanInfo(records, packets, octets, t_min, t_max, starts_sorted)


def _scan_packet_chunks(chunks) -> ScanInfo:
    """Scan packet chunks (``PACKET_DTYPE``) the same way."""
    packets = octets = 0
    t_min = np.inf
    t_max = -np.inf
    prev_last = -np.inf
    sorted_ = True
    for block in chunks:
        if block.size == 0:
            continue
        packets += int(block.size)
        octets += int(block["size"].sum(dtype=np.int64))
        ts = block["timestamp"]
        t_min = min(t_min, float(ts.min()))
        t_max = max(t_max, float(ts.max()))
        if sorted_:
            if float(ts[0]) < prev_last or bool(np.any(np.diff(ts) < 0)):
                sorted_ = False
        prev_last = float(ts[-1])
    if packets == 0:
        return ScanInfo(0, 0, 0, 0.0, 0.0, True)
    return ScanInfo(packets, packets, octets, t_min, t_max, sorted_)


def expand_flow_records(records: np.ndarray) -> np.ndarray:
    """Expand flow records into the ``PACKET_DTYPE`` packets behind them.

    A record of ``n`` packets and ``S`` octets over ``[start, end]``
    becomes ``n`` packets at ``start + (end-start)*k/(n-1)`` (all at
    ``start`` when ``n == 1``), sized ``S // n`` with the remainder
    spread one byte each over the first packets — totals are exact.
    The output is NOT globally time-sorted (records interleave); the
    stream layer handles ordering.
    """
    records = np.asarray(records)
    if records.dtype != FLOW_RECORD_DTYPE:
        raise ParameterError(
            f"expected FLOW_RECORD_DTYPE records, got dtype {records.dtype}"
        )
    if records.size == 0:
        return np.empty(0, dtype=PACKET_DTYPE)
    n = records["packets"].astype(np.int64)
    octets = records["octets"].astype(np.int64)
    if bool(np.any(n < 1)):
        index = int(np.argmax(n < 1))
        raise TraceFormatError(
            f"flow record {index} claims {int(n[index])} packets; "
            "a flow carries at least one"
        )
    if bool(np.any(octets < n)):
        index = int(np.argmax(octets < n))
        raise TraceFormatError(
            f"flow record {index} claims {int(octets[index])} octets over "
            f"{int(n[index])} packets — less than one byte per packet"
        )
    mean_size = -(-octets // n)  # ceil
    if bool(np.any(mean_size > 65535)):
        index = int(np.argmax(mean_size > 65535))
        raise TraceFormatError(
            f"flow record {index} averages {int(mean_size[index])} octets "
            "per packet, above the 65535-byte packet cap — a sampled "
            "archive (sampling_interval > 1) cannot be expanded to packets"
        )
    spans = records["end"] - records["start"]
    if bool(np.any(spans < 0)):
        index = int(np.argmax(spans < 0))
        raise TraceFormatError(
            f"flow record {index} ends before it starts"
        )

    total = int(n.sum())
    out = np.empty(total, dtype=PACKET_DTYPE)
    # intra-record packet index k = 0..n-1
    firsts = np.concatenate(([0], np.cumsum(n)[:-1]))
    k = np.arange(total, dtype=np.int64) - np.repeat(firsts, n)
    denom = np.repeat(np.maximum(n - 1, 1), n).astype(np.float64)
    out["timestamp"] = (
        np.repeat(records["start"], n)
        + np.repeat(spans, n) * (k.astype(np.float64) / denom)
    )
    for field in ("src_addr", "dst_addr", "src_port", "dst_port", "protocol"):
        out[field] = np.repeat(records[field], n)
    base = octets // n
    remainder = octets - base * n
    out["size"] = np.repeat(base, n) + (k < np.repeat(remainder, n))
    return out


def _resolve_rebase(rebase: str, t_min: float) -> float:
    """The clock offset to subtract, per the ``rebase`` policy."""
    if rebase == "never":
        return 0.0
    if rebase == "always":
        return t_min
    if rebase == "auto":
        return t_min if t_min > EPOCH_THRESHOLD else 0.0
    raise ParameterError(
        f"rebase must be 'auto', 'always' or 'never', got {rebase!r}"
    )


class FlowPacketStream:
    """Expanded-packet chunk stream over a flow-record archive.

    Iterating yields time-ordered ``PACKET_DTYPE`` chunks suitable for
    :meth:`MeasurementEngine.measure_chunks`.  Records must arrive
    start-ordered — natively (``order='start'``), or via an in-memory
    sort of the (small) record table (``order='export'``); ``'auto'``
    scans first and picks.  Expanded packets are held back until the
    record-start watermark passes them, so emission order is globally
    nondecreasing while memory stays bounded by the flows that span
    the watermark.

    Attributes ``duration`` and ``link_capacity`` feed
    ``measure_chunks``'s defaults; counters (``records_read``,
    ``packets_emitted``, ``bytes_emitted``) update as the stream drains.
    """

    def __init__(
        self,
        reader,
        *,
        scan: ScanInfo | None = None,
        order: str = "auto",
        rebase: str = "auto",
        duration: float | None = None,
        link_capacity: float | None = None,
    ) -> None:
        if order not in ("auto", "start", "export"):
            raise ParameterError(
                f"order must be 'auto', 'start' or 'export', got {order!r}"
            )
        self._reader = reader
        self.format = getattr(reader, "format", "flow-records")
        self.scan = scan if scan is not None else scan_record_chunks(reader)
        self.order = (
            ("start" if self.scan.starts_sorted else "export")
            if order == "auto"
            else order
        )
        self.base_offset = _resolve_rebase(rebase, self.scan.t_min)
        if duration is not None:
            self.duration = float(duration)
        elif self.scan.empty:
            self.duration = 0.0
        else:
            self.duration = self.scan.t_max - self.base_offset
        self.link_capacity = link_capacity
        self.records_read = 0
        self.packets_emitted = 0
        self.bytes_emitted = 0

    @property
    def records_skipped(self) -> int:
        """Malformed records the reader dropped (``errors="skip"``)."""
        return int(getattr(self._reader, "skipped", 0))

    def _record_chunks_sorted(self):
        """Record chunks in nondecreasing start order, per ``order``."""
        if self.order == "export":
            blocks = [b for b in self._reader if b.size]
            if not blocks:
                return
            table = np.concatenate(blocks)
            del blocks
            table = table[start_order(table["start"])]
            # hand the sorted table back out in reader-sized chunks
            chunk = max(int(getattr(self._reader, "chunk", 65536)), 1)
            for i in range(0, table.size, chunk):
                yield table[i: i + chunk]
            return
        watermark = -np.inf
        for block in self._reader:
            if block.size == 0:
                continue
            starts = block["start"]
            if float(starts[0]) < watermark or bool(
                np.any(np.diff(starts) < 0)
            ):
                raise TraceFormatError(
                    f"{getattr(self._reader, 'path', self.format)}: flow "
                    "records are not start-ordered; re-run with "
                    "order='export' (or 'auto') to sort the record table "
                    "in memory"
                )
            watermark = float(starts[-1])
            yield block

    def __iter__(self):
        pending = np.empty(0, dtype=PACKET_DTYPE)
        for block in self._record_chunks_sorted():
            self.records_read += int(block.size)
            packets = expand_flow_records(block)
            if self.base_offset:
                packets["timestamp"] -= self.base_offset
            pending = np.concatenate((pending, packets))
            # every future record starts at or after this watermark, so
            # packets at or before it are final
            watermark = float(block["start"][-1]) - self.base_offset
            ready = pending["timestamp"] <= watermark
            if bool(np.any(ready)):
                batch = pending[ready]
                batch = batch[np.argsort(batch["timestamp"], kind="stable")]
                pending = pending[~ready]
                self._count(batch)
                yield batch
        if pending.size:
            pending = pending[
                np.argsort(pending["timestamp"], kind="stable")
            ]
            self._count(pending)
            yield pending

    def _count(self, packets: np.ndarray) -> None:
        self.packets_emitted += int(packets.size)
        self.bytes_emitted += int(packets["size"].sum(dtype=np.int64))


class PacketChunkStream:
    """Rebased, order-checked packet chunks from a pcap or .rptr source.

    Sorts within each chunk (captures can reorder within a tick) and
    verifies chunks do not overlap in time — packets are measured
    through the same open-flow carry table as native traces.
    """

    def __init__(
        self,
        source,
        *,
        scan: ScanInfo | None = None,
        rebase: str = "auto",
        duration: float | None = None,
        link_capacity: float | None = None,
    ) -> None:
        self._source = source
        self.format = getattr(source, "format", "packets")
        self.scan = scan if scan is not None else _scan_packet_chunks(
            source.chunks()
        )
        self.base_offset = _resolve_rebase(rebase, self.scan.t_min)
        if duration is not None:
            self.duration = float(duration)
        elif self.scan.empty:
            self.duration = 0.0
        else:
            self.duration = self.scan.t_max - self.base_offset
        self.link_capacity = link_capacity
        self.packets_emitted = 0
        self.bytes_emitted = 0

    @property
    def records_read(self) -> int:
        return self.packets_emitted

    @property
    def records_skipped(self) -> int:
        """Malformed records the source dropped (``errors="skip"``)."""
        return int(getattr(self._source, "skipped", 0))

    def __iter__(self):
        prev_max = -np.inf
        for block in self._source.chunks():
            if block.size == 0:
                continue
            ts = block["timestamp"]
            if bool(np.any(np.diff(ts) < 0)):
                block = block[np.argsort(ts, kind="stable")]
                ts = block["timestamp"]
            if float(ts[0]) < prev_max:
                raise TraceFormatError(
                    f"{getattr(self._source, 'path', self.format)}: packet "
                    f"chunks overlap in time (chunk starts at "
                    f"{float(ts[0]):g}s, an earlier chunk ran to "
                    f"{prev_max:g}s); the capture is not time-ordered"
                )
            prev_max = float(ts[-1])
            if self.base_offset:
                block = block.copy()
                block["timestamp"] -= self.base_offset
            self.packets_emitted += int(block.size)
            self.bytes_emitted += int(block["size"].sum(dtype=np.int64))
            yield block


def open_import_stream(
    path,
    *,
    format: str = "auto",
    chunk: int | None = None,
    order: str = "auto",
    rebase: str = "auto",
    duration: float | None = None,
    link_capacity: float | None = None,
    errors: str = "strict",
):
    """Open any supported telemetry file as a measure-ready stream.

    Returns a :class:`FlowPacketStream` (flow archives) or
    :class:`PacketChunkStream` (packet captures / native traces): an
    iterable of time-ordered ``PACKET_DTYPE`` chunks carrying
    ``duration``/``link_capacity``, directly consumable by
    ``MeasurementEngine.measure_chunks``.

    ``errors="skip"`` makes the format readers drop malformed records
    instead of raising (counted in the stream's ``records_skipped``);
    native ``.rptr`` traces are always read strictly.
    """
    path = Path(path)
    if not path.exists():
        raise TraceFormatError(f"{path}: no such file")
    if errors not in ("strict", "skip"):
        raise ParameterError(
            f"errors must be 'strict' or 'skip', got {errors!r}"
        )
    if format == "auto":
        format = detect_format(path)
    if format not in IMPORT_FORMATS:
        raise ParameterError(
            f"format must be one of {('auto',) + IMPORT_FORMATS}, "
            f"got {format!r}"
        )
    if format == "rptr":
        reader = TraceReader(path)
        source_chunk = int(chunk) if chunk else 1_000_000

        class _RptrSource:
            format = "rptr"

            def __init__(self, reader, chunk):
                self.path = reader.path
                self._reader = reader
                self._chunk = chunk

            def chunks(self):
                return self._reader.chunks(self._chunk)

        # the native header already carries the trace geometry: no scan
        scan = ScanInfo(
            records=reader.packet_count,
            packets=reader.packet_count,
            octets=0,
            t_min=0.0,
            t_max=reader.duration,
            starts_sorted=True,
        )
        return PacketChunkStream(
            _RptrSource(reader, source_chunk),
            scan=scan,
            rebase="never",
            duration=duration if duration is not None else reader.duration,
            link_capacity=(
                link_capacity if link_capacity is not None
                else reader.link_capacity
            ),
        )
    if format == "pcap":
        source = PcapReader(
            path, chunk=int(chunk) if chunk else 1_000_000, errors=errors
        )
        return PacketChunkStream(
            source,
            rebase=rebase,
            duration=duration,
            link_capacity=link_capacity,
        )
    reader_cls = NetFlow5Reader if format == "netflow5" else IpfixReader
    reader = reader_cls(
        path, chunk=int(chunk) if chunk else 65536, errors=errors
    )
    return FlowPacketStream(
        reader,
        scan=scan_record_chunks(reader.record_chunks(scan=True)),
        order=order,
        rebase=rebase,
        duration=duration,
        link_capacity=link_capacity,
    )
