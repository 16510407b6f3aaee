"""IPFIX (RFC 7011): message layout, template decoding, foreign exporters."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.exceptions import TraceFormatError
from repro.interop import (
    FLOW_RECORD_DTYPE,
    IpfixReader,
    IpfixWriter,
    write_ipfix,
)
from repro.interop.ipfix import (
    IPFIX_EXPORT_TEMPLATE_ID,
    IPFIX_VERSION,
    _MESSAGE_HEADER,
    _SET_HEADER,
)

from .conftest import MS_ATOL, make_records


def read_all(path, **kwargs):
    blocks = list(IpfixReader(path, **kwargs))
    return np.concatenate(blocks) if blocks else np.empty(
        0, dtype=FLOW_RECORD_DTYPE
    )


def build_message(sets: list[bytes], *, version=IPFIX_VERSION) -> bytes:
    body = b"".join(sets)
    header = _MESSAGE_HEADER.pack(
        version, _MESSAGE_HEADER.size + len(body), 0, 0, 0
    )
    return header + body


def build_set(set_id: int, body: bytes) -> bytes:
    return _SET_HEADER.pack(set_id, _SET_HEADER.size + len(body)) + body


def template_set(template_id: int, fields: list[tuple[int, int]]) -> bytes:
    body = struct.pack(">HH", template_id, len(fields))
    for ie, length in fields:
        body += struct.pack(">HH", ie, length)
    return build_set(2, body)


#: A foreign exporter's template: different field order than ours, an
#: unknown IE (ingressInterface=10), and seconds-resolution timestamps.
FOREIGN_FIELDS = [
    (150, 4),  # flowStartSeconds
    (151, 4),  # flowEndSeconds
    (10, 4),   # ingressInterface — not needed, must be skipped
    (8, 4), (12, 4), (7, 2), (11, 2), (4, 1), (2, 8), (1, 8),
]


def foreign_record(start, end, src, dst, sport, dport, proto, pkts, octets):
    return struct.pack(
        ">IIIIIHHBQQ", start, end, 7, src, dst, sport, dport, proto,
        pkts, octets,
    )


class TestRoundTrip:
    def test_fields_exact_timestamps_quantized(self, tmp_path):
        records = make_records(150, spacing=0.017, span=2.3)
        path = tmp_path / "rt.ipfix"
        assert write_ipfix(records, path) == 150
        back = read_all(path)
        assert back.size == records.size
        for field in ("src_addr", "dst_addr", "src_port", "dst_port",
                      "protocol", "packets", "octets"):
            np.testing.assert_array_equal(back[field], records[field])
        np.testing.assert_allclose(back["start"], records["start"],
                                   atol=MS_ATOL)
        np.testing.assert_allclose(back["end"], records["end"], atol=MS_ATOL)

    def test_epoch_timestamps_survive(self, tmp_path):
        """64-bit millisecond IEs carry wall-clock archives unscathed."""
        records = make_records(5, start=1.7e9)
        path = tmp_path / "epoch.ipfix"
        write_ipfix(records, path)
        back = read_all(path)
        np.testing.assert_allclose(back["start"], records["start"],
                                   atol=MS_ATOL)

    def test_messages_stay_under_64k(self, tmp_path):
        path = tmp_path / "big.ipfix"
        write_ipfix(make_records(4000, spacing=0.001), path)
        data = path.read_bytes()
        pos = 0
        messages = 0
        while pos < len(data):
            version, length = struct.unpack_from(">HH", data, pos)
            assert version == IPFIX_VERSION
            assert length <= 0xFFFF
            # every message re-announces the template before its data
            set_id, _ = _SET_HEADER.unpack_from(data, pos + _MESSAGE_HEADER.size)
            assert set_id == 2
            pos += length
            messages += 1
        assert messages >= 3

    def test_reader_is_reiterable(self, tmp_path):
        path = tmp_path / "re.ipfix"
        write_ipfix(make_records(12), path)
        reader = IpfixReader(path)
        np.testing.assert_array_equal(
            np.concatenate(list(reader)), np.concatenate(list(reader))
        )

    def test_writer_rejects_negative_start(self, tmp_path):
        with pytest.raises(TraceFormatError, match="rebase"):
            write_ipfix(make_records(2, start=-0.5), tmp_path / "n.ipfix")

    def test_writer_rejects_end_before_start(self, tmp_path):
        records = make_records(3)
        records["end"][1] = records["start"][1] - 0.5
        path = tmp_path / "back.ipfix"
        with pytest.raises(TraceFormatError, match="record 1: it ends"):
            write_ipfix(records, path)
        assert path.stat().st_size == 0

    @pytest.mark.parametrize("field", ["start", "end"])
    def test_writer_rejects_non_finite_timestamps(self, tmp_path, field):
        records = make_records(3)
        records[field][2] = np.nan
        path = tmp_path / "nan.ipfix"
        with pytest.raises(TraceFormatError, match="must be finite"):
            write_ipfix(records, path)
        assert path.stat().st_size == 0

    @pytest.mark.parametrize("field", ["packets", "octets"])
    def test_writer_rejects_negative_counters(self, tmp_path, field):
        records = make_records(3)
        records[field][0] = -1
        path = tmp_path / "neg.ipfix"
        with pytest.raises(TraceFormatError, match=f"{field} = -1"):
            write_ipfix(records, path)
        assert path.stat().st_size == 0


class TestForeignTemplates:
    def test_field_order_and_unknown_ies_tolerated(self, tmp_path):
        path = tmp_path / "foreign.ipfix"
        records = [
            foreign_record(100, 105, 0x0A000001, 0x0A000002, 40000, 443, 6,
                           10, 5000),
            foreign_record(101, 109, 0x0A000003, 0x0A000004, 53, 53, 17,
                           2, 300),
        ]
        path.write_bytes(build_message([
            template_set(300, FOREIGN_FIELDS),
            build_set(300, b"".join(records)),
        ]))
        back = read_all(path)
        assert back.size == 2
        assert back["start"].tolist() == [100.0, 101.0]
        assert back["end"].tolist() == [105.0, 109.0]
        assert back["src_port"].tolist() == [40000, 53]
        assert back["octets"].tolist() == [5000, 300]

    def test_ports_optional_default_zero(self, tmp_path):
        fields = [(8, 4), (12, 4), (4, 1), (2, 8), (1, 8), (152, 8), (153, 8)]
        body = struct.pack(">IIBQQQQ", 1, 2, 6, 3, 900, 1000, 2000)
        path = tmp_path / "noports.ipfix"
        path.write_bytes(build_message([
            template_set(256, fields), build_set(256, body),
        ]))
        back = read_all(path)
        assert back["src_port"].tolist() == [0]
        assert back["dst_port"].tolist() == [0]
        assert back["start"].tolist() == [1.0]

    def test_enterprise_fields_skipped(self, tmp_path):
        # enterprise bit set on a padding-ish IE: 4 extra bytes in the
        # template, field bytes still occupy the record
        fields_wire = struct.pack(">HH", 257, 3)
        fields_wire += struct.pack(">HH", 8, 4)
        fields_wire += struct.pack(">HHI", 0x8000 | 12, 4, 4242)  # enterprise
        fields_wire += struct.pack(">HH", 4, 1)
        template = build_set(2, fields_wire)
        # record: src, dst, proto — but template lacks counters/timestamps
        data = build_set(257, struct.pack(">IIB", 1, 2, 6))
        path = tmp_path / "ent.ipfix"
        path.write_bytes(build_message([template, data]))
        with pytest.raises(TraceFormatError, match="lacks required"):
            read_all(path)

    def test_options_template_sets_skipped(self, tmp_path):
        path = tmp_path / "opts.ipfix"
        path.write_bytes(
            build_message([build_set(3, b"\x01\x02\x03\x04")])
            + build_message([
                template_set(256, FOREIGN_FIELDS),
                build_set(256, foreign_record(1, 2, 3, 4, 5, 6, 6, 1, 40)),
            ])
        )
        assert read_all(path).size == 1

    def test_set_padding_tolerated(self, tmp_path):
        records = make_records(3)
        path = tmp_path / "pad.ipfix"
        write_ipfix(records, path)
        # append a message whose template set carries two padding bytes
        fields = [(8, 4), (12, 4), (7, 2), (11, 2), (4, 1), (2, 8), (1, 8),
                  (152, 8), (153, 8)]
        body = struct.pack(">HH", 256, len(fields))
        for ie, length in fields:
            body += struct.pack(">HH", ie, length)
        body += b"\x00\x00"  # RFC 7011 §3.3.1 set padding
        with open(path, "ab") as fh:
            fh.write(build_message([build_set(2, body)]))
        assert read_all(path).size == 3


class TestCorruption:
    def test_bad_version_names_offset(self, tmp_path):
        path = tmp_path / "v.ipfix"
        path.write_bytes(build_message([], version=9))
        with pytest.raises(
            TraceFormatError, match="bad IPFIX version 9 at byte offset 0"
        ):
            read_all(path)

    def test_truncated_message_names_offsets(self, tmp_path):
        path = tmp_path / "t.ipfix"
        write_ipfix(make_records(2), path)
        data = path.read_bytes()
        path.write_bytes(data[:-11])
        with pytest.raises(
            TraceFormatError,
            match=r"truncated IPFIX message at byte offset 0",
        ):
            read_all(path)

    def test_truncated_header_names_offset(self, tmp_path):
        path = tmp_path / "h.ipfix"
        write_ipfix(make_records(2), path)
        data = path.read_bytes()
        path.write_bytes(data + data[:7])
        with pytest.raises(
            TraceFormatError,
            match=rf"message header at byte offset {len(data)}: got 7",
        ):
            read_all(path)

    def test_unknown_template_reference(self, tmp_path):
        path = tmp_path / "u.ipfix"
        path.write_bytes(build_message([build_set(999, b"\x00" * 8)]))
        with pytest.raises(
            TraceFormatError, match="references template 999"
        ):
            read_all(path)

    def test_variable_length_fields_rejected(self, tmp_path):
        path = tmp_path / "var.ipfix"
        path.write_bytes(build_message([template_set(256, [(8, 0xFFFF)])]))
        with pytest.raises(TraceFormatError, match="variable-length"):
            read_all(path)

    def test_set_overrunning_message_rejected(self, tmp_path):
        path = tmp_path / "o.ipfix"
        bad_set = _SET_HEADER.pack(2, 500)  # promises 500B, message ends
        path.write_bytes(build_message([bad_set]))
        with pytest.raises(TraceFormatError, match="runs past its message"):
            read_all(path)

    def test_record_end_before_start(self, tmp_path):
        path = tmp_path / "eb.ipfix"
        records = make_records(1)
        records["end"] = records["start"] - 1.0
        # bypass the writer's own guard by building the message by hand
        wire = struct.pack(
            ">IIHHBQQQQ", 1, 2, 3, 4, 6, 1, 40, 5000, 4000
        )
        fields = [(8, 4), (12, 4), (7, 2), (11, 2), (4, 1), (2, 8), (1, 8),
                  (152, 8), (153, 8)]
        path.write_bytes(build_message([
            template_set(256, fields), build_set(256, wire),
        ]))
        with pytest.raises(TraceFormatError, match="ends before it starts"):
            read_all(path)
