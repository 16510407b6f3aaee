"""``calibrate_archive`` reads a flow archive in two passes.

The first pass scans the archive converting only the scan columns (for
the clock range the time bins need); the second decodes every record
once in full and accumulates it.  Both run the reader's one walker, so
under ``errors="skip"`` they keep and drop the same datagrams and
records: the report must equal one computed from a single in-memory
decode of the archive.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.calibration import (
    calibrate_accumulator,
    calibrate_archive,
    calibrate_sizes,
)
from repro.exceptions import TraceFormatError
from repro.interop import (
    FLOW_RECORD_DTYPE,
    IpfixReader,
    NetFlow5Reader,
    open_import_stream,
    scan_record_chunks,
    write_ipfix,
    write_netflow5,
)
from repro.interop.adapter import EPOCH_THRESHOLD
from repro.interop.netflow5 import NETFLOW5_HEADER, NETFLOW5_RECORD_SIZE
from repro.interop.records import SCAN_RECORD_DTYPE

from .test_golden_report import golden_records

READERS = {"netflow5": NetFlow5Reader, "ipfix": IpfixReader}

#: The golden records are cut into four parts, one damage each:
#: part 1 is good, part 2 carries a bad version, part 3 a record whose
#: end precedes its start, and part 4 is truncated mid-datagram/message.
PARTS = (0, 300, 330, 600, 800)

#: (kept records, skipped count) of the damaged archives under "skip":
#: v5 skips the bad datagram's 30 records, the reversed record and the
#: 20 records the torn last datagram promised; IPFIX skips the
#: bad-version message, the reversed record and the torn message.
DAMAGED = {"netflow5": (749, 51), "ipfix": (569, 3)}

#: Byte offsets, in one record, of the start and end timestamps.
_TIMES = {"netflow5": (24, 28, 4), "ipfix": (29, 37, 8)}


def _part_bytes(fmt, records, tmp_path):
    path = tmp_path / f"part.{fmt}"
    (write_netflow5 if fmt == "netflow5" else write_ipfix)(records, path)
    return bytearray(path.read_bytes())


def _first_record_offset(fmt, data):
    if fmt == "netflow5":
        return NETFLOW5_HEADER.size
    # message header, the template set, then the data set's header
    template_length = struct.unpack_from(">H", data, 16 + 2)[0]
    return 16 + template_length + 4


def damaged_archive(fmt, tmp_path):
    records = golden_records()
    parts = [
        _part_bytes(fmt, records[lo:hi], tmp_path)
        for lo, hi in zip(PARTS, PARTS[1:])
    ]
    parts[1][1] = 9  # the version field's low byte
    start_at, end_at, width = _TIMES[fmt]
    record = _first_record_offset(fmt, parts[2]) + 3 * (
        NETFLOW5_RECORD_SIZE if fmt == "netflow5" else 45
    )
    start = bytes(parts[2][record + start_at: record + start_at + width])
    parts[2][record + start_at: record + start_at + width] = (
        parts[2][record + end_at: record + end_at + width]
    )
    parts[2][record + end_at: record + end_at + width] = start
    parts[3] = parts[3][:-100]
    path = tmp_path / f"damaged.{fmt}"
    path.write_bytes(b"".join(bytes(part) for part in parts))
    return path


def one_decode_report(path, fmt):
    """The report of one in-memory decode of the whole archive."""
    reader = READERS[fmt](path, errors="skip")
    table = np.concatenate(list(reader))
    t_min = float(table["start"].min())
    t_max = float(table["end"].max())
    offset = t_min if t_min > EPOCH_THRESHOLD else 0.0
    acc = calibrate_sizes(
        table["octets"].astype(np.float64),
        table["start"] - offset,
        duration=t_max - offset,
    )
    report = calibrate_accumulator(
        acc,
        source=str(path),
        metadata={"format": fmt, "records": int(table.size)},
    )
    return report, table, reader.skipped


@pytest.mark.parametrize("chunk", [None, 64])
@pytest.mark.parametrize("fmt", sorted(READERS))
def test_skip_report_equals_one_in_memory_decode(tmp_path, fmt, chunk):
    path = damaged_archive(fmt, tmp_path)
    expected, table, skipped = one_decode_report(path, fmt)
    assert (table.size, skipped) == DAMAGED[fmt]
    report = calibrate_archive(path, errors="skip", chunk=chunk)
    assert report.to_dict() == expected.to_dict()
    assert report.metadata["records"] == DAMAGED[fmt][0]
    assert report.diurnal == expected.diurnal
    with pytest.raises(TraceFormatError, match="version"):
        calibrate_archive(path)


@pytest.mark.parametrize("fmt", sorted(READERS))
def test_each_record_is_fully_decoded_once(tmp_path, monkeypatch, fmt):
    path = damaged_archive(fmt, tmp_path)
    _, table, _ = one_decode_report(path, fmt)
    reader_cls = READERS[fmt]
    record_chunks = reader_cls.record_chunks
    blocks = []

    def counting_record_chunks(self, scan=False):
        for block in record_chunks(self, scan=scan):
            blocks.append(block)
            yield block

    monkeypatch.setattr(reader_cls, "record_chunks", counting_record_chunks)
    monkeypatch.setattr(reader_cls, "__iter__", counting_record_chunks)
    calibrate_archive(path, errors="skip", chunk=64)
    full = [b for b in blocks if b.dtype == FLOW_RECORD_DTYPE]
    scanned = [b for b in blocks if b.dtype != FLOW_RECORD_DTYPE]
    assert np.concatenate(full).tobytes() == table.tobytes()
    assert {b.dtype for b in scanned} == {SCAN_RECORD_DTYPE}
    assert sum(b.size for b in scanned) == table.size


@pytest.mark.parametrize("errors", ["strict", "skip"])
@pytest.mark.parametrize("fmt", sorted(READERS))
def test_column_scan_equals_a_full_record_scan(tmp_path, fmt, errors):
    if errors == "skip":
        path = damaged_archive(fmt, tmp_path)
    else:
        path = tmp_path / f"golden.{fmt}"
        (write_netflow5 if fmt == "netflow5" else write_ipfix)(
            golden_records(), path
        )
    reader = READERS[fmt](path, chunk=100, errors=errors)
    full = scan_record_chunks(iter(list(reader)))
    skipped = reader.skipped
    assert scan_record_chunks(reader.record_chunks(scan=True)) == full
    assert reader.skipped == skipped
    stream = open_import_stream(path, chunk=100, errors=errors)
    assert stream.scan == full
