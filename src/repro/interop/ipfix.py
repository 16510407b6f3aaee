"""IPFIX (RFC 7011) flow archives: streaming reader and writer.

The on-disk layout is a concatenation of IPFIX messages — a 16-byte
header (version 10), then sets: template sets (id 2) that describe
record layouts, and data sets (id >= 256) carrying fixed-size records.
The reader decodes templates into numpy structured dtypes on the fly
(each distinct template set once per pass), so it handles any exporter
whose templates cover the five-tuple, packet/octet counters and
start/end timestamps; unknown information elements are skipped,
enterprise-specific ones tolerated.

Our writer emits one template (id 256) with millisecond start/end
timestamps (IEs 152/153), so exported archives round-trip with 1 ms
quantization — same documented tolerance as NetFlow v5.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ..exceptions import ParameterError, TraceFormatError
from .records import FLOW_RECORD_DTYPE, SCAN_RECORD_DTYPE, check_exportable

__all__ = [
    "IPFIX_VERSION",
    "IPFIX_EXPORT_TEMPLATE_ID",
    "IpfixReader",
    "IpfixWriter",
    "write_ipfix",
]

IPFIX_VERSION = 10

#: version, length, export_time, sequence, observation_domain_id
_MESSAGE_HEADER = struct.Struct(">HHIII")
#: set_id, length
_SET_HEADER = struct.Struct(">HH")
#: template_id, field_count
_TEMPLATE_HEADER = struct.Struct(">HH")
_FIELD_SPEC = struct.Struct(">HH")

_TEMPLATE_SET_ID = 2
_OPTIONS_TEMPLATE_SET_ID = 3
_MIN_DATA_SET_ID = 256
_MAX_MESSAGE_LENGTH = 0xFFFF

# IANA information element numbers (RFC 7012 registry).
IE_OCTET_DELTA_COUNT = 1
IE_PACKET_DELTA_COUNT = 2
IE_PROTOCOL_IDENTIFIER = 4
IE_SOURCE_TRANSPORT_PORT = 7
IE_SOURCE_IPV4_ADDRESS = 8
IE_DESTINATION_TRANSPORT_PORT = 11
IE_DESTINATION_IPV4_ADDRESS = 12
IE_FLOW_START_SECONDS = 150
IE_FLOW_END_SECONDS = 151
IE_FLOW_START_MILLISECONDS = 152
IE_FLOW_END_MILLISECONDS = 153

IPFIX_EXPORT_TEMPLATE_ID = 256

#: Our export template: (IE number, field length).  45-byte records.
_EXPORT_FIELDS = (
    (IE_SOURCE_IPV4_ADDRESS, 4),
    (IE_DESTINATION_IPV4_ADDRESS, 4),
    (IE_SOURCE_TRANSPORT_PORT, 2),
    (IE_DESTINATION_TRANSPORT_PORT, 2),
    (IE_PROTOCOL_IDENTIFIER, 1),
    (IE_PACKET_DELTA_COUNT, 8),
    (IE_OCTET_DELTA_COUNT, 8),
    (IE_FLOW_START_MILLISECONDS, 8),
    (IE_FLOW_END_MILLISECONDS, 8),
)

_EXPORT_RECORD_DTYPE = np.dtype(
    [
        ("src_addr", ">u4"),
        ("dst_addr", ">u4"),
        ("src_port", ">u2"),
        ("dst_port", ">u2"),
        ("protocol", "u1"),
        ("packets", ">u8"),
        ("octets", ">u8"),
        ("start_ms", ">u8"),
        ("end_ms", ">u8"),
    ]
)
assert _EXPORT_RECORD_DTYPE.itemsize == sum(n for _, n in _EXPORT_FIELDS)

_MS = 1000.0

#: Wire bytes the reader joins for one conversion.
_CONVERT_BYTES = 1 << 20


def _template_set_bytes() -> bytes:
    body = _TEMPLATE_HEADER.pack(IPFIX_EXPORT_TEMPLATE_ID, len(_EXPORT_FIELDS))
    for ie, length in _EXPORT_FIELDS:
        body += _FIELD_SPEC.pack(ie, length)
    return _SET_HEADER.pack(_TEMPLATE_SET_ID, _SET_HEADER.size + len(body)) + body


class IpfixWriter:
    """Stream :data:`FLOW_RECORD_DTYPE` chunks as IPFIX messages.

    Every message re-announces template 256 (file readers see messages
    in order, but a collector replaying the file may start anywhere),
    then carries one data set, batched to the 64 KiB message limit.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.record_count = 0
        self._file = None

    def __enter__(self) -> "IpfixWriter":
        self._file = open(self.path, "wb")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def write(self, records: np.ndarray) -> None:
        """Append flow records, batched into <=64 KiB messages."""
        if self._file is None:
            raise TraceFormatError("IpfixWriter is not open")
        records = np.asarray(records)
        check_exportable(records, "IPFIX")
        if records.size == 0:
            return
        wire = np.zeros(records.size, dtype=_EXPORT_RECORD_DTYPE)
        for field in ("src_addr", "dst_addr", "src_port", "dst_port",
                      "protocol", "packets", "octets"):
            wire[field] = records[field]
        wire["start_ms"] = np.rint(records["start"] * _MS).astype(np.uint64)
        wire["end_ms"] = np.rint(records["end"] * _MS).astype(np.uint64)

        template = _template_set_bytes()
        overhead = _MESSAGE_HEADER.size + len(template) + _SET_HEADER.size
        per_message = (_MAX_MESSAGE_LENGTH - overhead) // _EXPORT_RECORD_DTYPE.itemsize
        for lo in range(0, wire.size, per_message):
            block = wire[lo: lo + per_message]
            data = block.tobytes()
            data_set = _SET_HEADER.pack(
                IPFIX_EXPORT_TEMPLATE_ID, _SET_HEADER.size + len(data)
            ) + data
            length = _MESSAGE_HEADER.size + len(template) + len(data_set)
            header = _MESSAGE_HEADER.pack(
                IPFIX_VERSION,
                length,
                0,  # export_time: 0-based capture clock
                self.record_count & 0xFFFFFFFF,  # sequence
                0,  # observation domain
            )
            self._file.write(header)
            self._file.write(template)
            self._file.write(data_set)
            self.record_count += int(block.size)


def write_ipfix(records: np.ndarray, path) -> int:
    """Write one record array as an IPFIX archive; returns the count."""
    with IpfixWriter(path) as writer:
        writer.write(records)
        return writer.record_count


class _Template:
    """A decoded IPFIX template: field layout -> numpy view plan."""

    _WIDTH_DTYPES = {1: "u1", 2: ">u2", 4: ">u4", 8: ">u8"}

    def __init__(self, template_id: int, fields: list[tuple[int, int]]) -> None:
        self.template_id = template_id
        names: list[str] = []
        dtypes: list[str] = []
        self.by_ie: dict[int, str] = {}
        for i, (ie, length) in enumerate(fields):
            name = f"f{i}_ie{ie}"
            names.append(name)
            dtypes.append(self._WIDTH_DTYPES.get(length, f"V{length}"))
            # first occurrence wins (reverse fields are rare duplicates)
            self.by_ie.setdefault(ie, name)
        self.dtype = np.dtype(list(zip(names, dtypes)))
        self.record_size = self.dtype.itemsize
        #: required information elements the template lacks
        self.missing = self._missing_fields()

    def _field(self, wire: np.ndarray, ie: int):
        name = self.by_ie.get(ie)
        if name is None or self.dtype[name].kind == "V":
            return None
        return wire[name]

    def _has(self, ie: int) -> bool:
        name = self.by_ie.get(ie)
        return name is not None and self.dtype[name].kind != "V"

    def _missing_fields(self) -> list[int]:
        required = (
            IE_SOURCE_IPV4_ADDRESS, IE_DESTINATION_IPV4_ADDRESS,
            IE_PROTOCOL_IDENTIFIER, IE_PACKET_DELTA_COUNT,
            IE_OCTET_DELTA_COUNT,
        )
        missing = [ie for ie in required if not self._has(ie)]
        has_start = any(
            self._has(ie)
            for ie in (IE_FLOW_START_MILLISECONDS, IE_FLOW_START_SECONDS)
        )
        has_end = any(
            self._has(ie)
            for ie in (IE_FLOW_END_MILLISECONDS, IE_FLOW_END_SECONDS)
        )
        if not has_start:
            missing.append(IE_FLOW_START_MILLISECONDS)
        if not has_end:
            missing.append(IE_FLOW_END_MILLISECONDS)
        return missing

    def _seconds(self, wire: np.ndarray, ms_ie: int, s_ie: int) -> np.ndarray:
        column = self._field(wire, ms_ie)
        if column is not None:
            return column.astype(np.float64) / _MS
        return self._field(wire, s_ie).astype(np.float64)

    def convert(self, wire: np.ndarray, out: np.ndarray) -> None:
        """Convert wire records into ``out``'s columns (a record view)."""
        names = out.dtype.names
        out["start"] = self._seconds(
            wire, IE_FLOW_START_MILLISECONDS, IE_FLOW_START_SECONDS
        )
        out["end"] = self._seconds(
            wire, IE_FLOW_END_MILLISECONDS, IE_FLOW_END_SECONDS
        )
        for ie, name in (
            (IE_SOURCE_IPV4_ADDRESS, "src_addr"),
            (IE_DESTINATION_IPV4_ADDRESS, "dst_addr"),
            (IE_PROTOCOL_IDENTIFIER, "protocol"),
            (IE_PACKET_DELTA_COUNT, "packets"),
            (IE_OCTET_DELTA_COUNT, "octets"),
            (IE_SOURCE_TRANSPORT_PORT, "src_port"),
            (IE_DESTINATION_TRANSPORT_PORT, "dst_port"),
        ):
            if name in names:
                column = self._field(wire, ie)
                out[name] = 0 if column is None else column


class IpfixReader:
    """Bounded-memory chunk iterator over an IPFIX archive.

    Decodes template sets as encountered; data sets referencing an
    unknown template, or a template missing the five-tuple/counter/
    timestamp fields, raise :class:`TraceFormatError` naming the byte
    offset.  Set padding (RFC 7011 §3.3.1) is tolerated.

    ``record_chunks()`` yields :data:`FLOW_RECORD_DTYPE` blocks of at
    most ``chunk`` records as read, cut at data set boundaries (a data
    set larger than ``chunk`` is a block of its own; records dropped
    under ``errors="skip"`` leave a block short).  Data sets are
    converted into the block as they arrive, one conversion per run of
    sets sharing a template (up to 1 MiB of wire bytes), so only that
    run's messages and the block are held.  ``record_chunks(scan=True)``
    walks the same sets but converts only the
    :data:`~repro.interop.records.SCAN_RECORD_DTYPE` columns.  A
    template set whose bytes repeat an earlier one (exporters
    re-announce their templates in every message) is parsed once per
    pass.

    ``errors="skip"`` drops malformed structures instead of raising and
    counts them in :attr:`skipped` (reset at the start of each pass):
    a bad set, an unknown or incomplete template's data set, or a
    bad-version message with a plausible length is skipped whole; a
    record that ends before it starts is dropped individually; a
    truncated message — where the stream cannot be re-synchronised —
    stops the pass.  A scan and a full decode run these checks in one
    walk, so both passes over one archive keep and drop the same
    records.
    """

    format = "ipfix"

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
        #: malformed records/sets dropped by the most recent
        #: ``errors="skip"`` pass (0 under ``errors="strict"``)
        self.skipped = 0

    def _decode_template_set(self, body, templates, *, offset: int) -> None:
        pos = 0
        # a trailing fragment shorter than a template header is padding
        while pos + _TEMPLATE_HEADER.size <= len(body):
            template_id, field_count = _TEMPLATE_HEADER.unpack_from(body, pos)
            if template_id == 0 and field_count == 0:
                break  # padding
            pos += _TEMPLATE_HEADER.size
            if template_id < _MIN_DATA_SET_ID:
                raise TraceFormatError(
                    f"{self.path}: template id {template_id} < "
                    f"{_MIN_DATA_SET_ID} in the template set at byte "
                    f"offset {offset}"
                )
            fields: list[tuple[int, int]] = []
            for _ in range(field_count):
                if pos + _FIELD_SPEC.size > len(body):
                    raise TraceFormatError(
                        f"{self.path}: truncated template {template_id} in "
                        f"the set at byte offset {offset}: field specs run "
                        "past the set boundary"
                    )
                ie, length = _FIELD_SPEC.unpack_from(body, pos)
                pos += _FIELD_SPEC.size
                if ie & 0x8000:  # enterprise-specific: 4 extra bytes
                    pos += 4
                    ie &= 0x7FFF
                if length == 0 or length == 0xFFFF:
                    raise TraceFormatError(
                        f"{self.path}: template {template_id} field ie={ie} "
                        f"has unsupported length {length} (variable-length "
                        "elements are not supported) in the set at byte "
                        f"offset {offset}"
                    )
                fields.append((ie, length))
            templates[template_id] = _Template(template_id, fields)

    def _template_set(self, body, templates, parsed, *, offset: int) -> None:
        """Apply one template set, parsing its bytes once per pass."""
        key = bytes(body)
        known = parsed.get(key)
        if known is None:
            known = {}
            try:
                self._decode_template_set(body, known, offset=offset)
            finally:
                # a set that fails part-way keeps the templates before it
                templates.update(known)
            parsed[key] = known
        else:
            templates.update(known)

    def _data_sets(self):
        """Yield the archive's good data sets as ``(template, payload, offset)``.

        Damage ends the walk, after every good set before it: the error
        is raised (strict) or counted (skip).
        """
        skip = self.errors == "skip"
        templates: dict[int, _Template] = {}
        parsed: dict[bytes, dict[int, _Template]] = {}
        with open(self.path, "rb") as fh:
            offset = 0
            while True:
                raw = fh.read(_MESSAGE_HEADER.size)
                if not raw:
                    return
                if len(raw) < _MESSAGE_HEADER.size:
                    if skip:
                        self.skipped += 1
                        return
                    raise TraceFormatError(
                        f"{self.path}: truncated IPFIX message header at "
                        f"byte offset {offset}: got {len(raw)} bytes, "
                        f"expected {_MESSAGE_HEADER.size}"
                    )
                version, length, _etime, _seq, _odid = _MESSAGE_HEADER.unpack(raw)
                if length < _MESSAGE_HEADER.size:
                    if skip:
                        # the length sizes the message; without it the
                        # stream cannot be re-synchronised
                        self.skipped += 1
                        return
                    raise TraceFormatError(
                        f"{self.path}: implausible IPFIX message length "
                        f"{length} at byte offset {offset} (expected >= "
                        f"{_MESSAGE_HEADER.size})"
                    )
                if version != IPFIX_VERSION:
                    if skip:
                        # length is plausible: hop over this message
                        fh.seek(length - _MESSAGE_HEADER.size, 1)
                        self.skipped += 1
                        offset += length
                        continue
                    raise TraceFormatError(
                        f"{self.path}: bad IPFIX version {version} at byte "
                        f"offset {offset}, expected {IPFIX_VERSION}"
                    )
                body = fh.read(length - _MESSAGE_HEADER.size)
                if len(body) < length - _MESSAGE_HEADER.size:
                    if skip:
                        self.skipped += 1
                        return
                    raise TraceFormatError(
                        f"{self.path}: truncated IPFIX message at byte "
                        f"offset {offset}: got "
                        f"{_MESSAGE_HEADER.size + len(body)} bytes, the "
                        f"header promised {length}"
                    )
                view = memoryview(body)
                pos = 0
                while pos + _SET_HEADER.size <= len(body):
                    set_offset = offset + _MESSAGE_HEADER.size + pos
                    set_id, set_length = _SET_HEADER.unpack_from(body, pos)
                    if set_length < _SET_HEADER.size:
                        if skip:
                            # set boundaries inside this message are
                            # lost; drop the message's remainder
                            self.skipped += 1
                            break
                        raise TraceFormatError(
                            f"{self.path}: implausible set length "
                            f"{set_length} at byte offset {set_offset} "
                            f"(expected >= {_SET_HEADER.size})"
                        )
                    if pos + set_length > len(body):
                        if skip:
                            self.skipped += 1
                            break
                        raise TraceFormatError(
                            f"{self.path}: set at byte offset {set_offset} "
                            f"runs past its message: set length {set_length}"
                            f", {len(body) - pos} bytes remain"
                        )
                    set_body = view[pos + _SET_HEADER.size: pos + set_length]
                    if set_id == _TEMPLATE_SET_ID:
                        try:
                            self._template_set(
                                set_body, templates, parsed, offset=set_offset
                            )
                        except TraceFormatError:
                            if not skip:
                                raise
                            self.skipped += 1
                    elif set_id == _OPTIONS_TEMPLATE_SET_ID:
                        pass  # options records carry no flows
                    elif set_id >= _MIN_DATA_SET_ID:
                        template = templates.get(set_id)
                        if template is None:
                            if skip:
                                self.skipped += 1
                                pos += set_length
                                continue
                            raise TraceFormatError(
                                f"{self.path}: data set at byte offset "
                                f"{set_offset} references template "
                                f"{set_id}, which no template set has "
                                "defined yet"
                            )
                        if template.missing:
                            if skip:
                                self.skipped += 1
                                pos += set_length
                                continue
                            raise TraceFormatError(
                                f"{self.path}: template {set_id} lacks "
                                "required information elements "
                                f"{template.missing} (data set at byte "
                                f"offset {set_offset})"
                            )
                        count = len(set_body) // template.record_size
                        if count:
                            yield template, set_body[
                                : count * template.record_size
                            ], set_offset
                    # set ids 0,1,4..255 are reserved: skip
                    pos += set_length
                offset += length

    def _fill(self, group, block, filled: int) -> int:
        """Convert ``group`` into ``block`` from row ``filled``; return the fill.

        ``group`` holds consecutive data sets of one template; their
        wire bytes are joined and converted in one pass, and the list is
        emptied.  Under ``errors="strict"`` a record that ends before it
        starts raises here, naming its data set.
        """
        template = group[0][0]
        wire = np.frombuffer(
            b"".join(payload for _, payload, _ in group), dtype=template.dtype
        )
        out = block[filled: filled + wire.size]
        template.convert(wire, out)
        sets = group[:]
        group.clear()
        if self.errors == "skip":
            return filled + wire.size
        bad = out["end"] < out["start"]
        if bool(np.any(bad)):
            index = int(np.argmax(bad))
            for _, payload, offset in sets:
                count = len(payload) // template.record_size
                if index < count:
                    break
                index -= count
            raise TraceFormatError(
                f"{self.path}: record {index} of the data set at byte offset "
                f"{offset} ends before it starts"
            )
        return filled + wire.size

    def _finish(self, block):
        """Drop, under ``errors="skip"``, the block's records that end first."""
        bad = block["end"] < block["start"]
        if not bool(np.any(bad)):
            return block
        self.skipped += int(np.count_nonzero(bad))
        return block[~bad]

    def record_chunks(self, scan: bool = False):
        """Yield decoded blocks of at most ``chunk`` records.

        Blocks hold whole :data:`FLOW_RECORD_DTYPE` records, or with
        ``scan=True`` only the :data:`SCAN_RECORD_DTYPE` columns.
        """
        self.skipped = 0
        dtype = SCAN_RECORD_DTYPE if scan else FLOW_RECORD_DTYPE
        block, filled = np.empty(0, dtype=dtype), 0
        # data sets awaiting conversion, and their records and wire bytes
        group, queued, joined = [], 0, 0
        try:
            for item in self._data_sets():
                template, payload, _offset = item
                count = len(payload) // template.record_size
                if filled + queued + count > block.size:
                    # the set does not fit: finish the block before it
                    if group:
                        filled = self._fill(group, block, filled)
                    if filled:
                        yield self._finish(block[:filled])
                    block, filled = np.empty(max(self.chunk, count), dtype), 0
                    queued = joined = 0
                elif group and (
                    template is not group[0][0] or joined >= _CONVERT_BYTES
                ):
                    filled = self._fill(group, block, filled)
                    queued = joined = 0
                group.append(item)
                queued += count
                joined += len(payload)
        except TraceFormatError:
            # a bad record before the damage is the archive's first error
            if group:
                self._fill(group, block, filled)
            raise
        if group:
            filled = self._fill(group, block, filled)
        if filled:
            yield self._finish(block[:filled])

    __iter__ = record_chunks
