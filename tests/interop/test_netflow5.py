"""NetFlow v5 wire format: writer layout, reader decoding, corruption."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.exceptions import TraceFormatError
from repro.interop import netflow5
from repro.interop import (
    FLOW_RECORD_DTYPE,
    NetFlow5Reader,
    NetFlow5Writer,
    write_netflow5,
)
from repro.interop.netflow5 import (
    MAX_RECORDS_PER_DATAGRAM,
    NETFLOW5_HEADER,
    NETFLOW5_RECORD_SIZE,
)

from .conftest import MS_ATOL, make_records


def read_all(path, **kwargs):
    blocks = list(NetFlow5Reader(path, **kwargs))
    return np.concatenate(blocks) if blocks else np.empty(
        0, dtype=FLOW_RECORD_DTYPE
    )


def datagram_offsets(data):
    """``(byte offset, record count)`` of each datagram of an archive."""
    datagrams, pos = [], 0
    while pos < len(data):
        count = NETFLOW5_HEADER.unpack_from(data, pos)[1]
        datagrams.append((pos, count))
        pos += NETFLOW5_HEADER.size + count * NETFLOW5_RECORD_SIZE
    return datagrams


def write_mixed_archive(path):
    """Partial and full datagrams from several ``write`` calls."""
    with NetFlow5Writer(path) as writer:
        for seed, n in enumerate((1, 29, 30, 31, 77, 5, 200)):
            writer.write(make_records(n, seed=seed, span=1.0 + seed))
    return path.read_bytes()


class TestWriter:
    def test_wire_layout(self, tmp_path):
        path = tmp_path / "a.nf5"
        assert write_netflow5(make_records(7), path) == 7
        data = path.read_bytes()
        assert len(data) == NETFLOW5_HEADER.size + 7 * NETFLOW5_RECORD_SIZE
        version, count = struct.unpack(">HH", data[:4])
        assert version == 5
        assert count == 7

    def test_datagram_cap_is_30_records(self, tmp_path):
        path = tmp_path / "b.nf5"
        n = MAX_RECORDS_PER_DATAGRAM * 2 + 5
        write_netflow5(make_records(n), path)
        expected = (
            3 * NETFLOW5_HEADER.size + n * NETFLOW5_RECORD_SIZE
        )
        assert path.stat().st_size == expected
        counts = []
        data = path.read_bytes()
        pos = 0
        while pos < len(data):
            _, count = struct.unpack_from(">HH", data, pos)
            counts.append(count)
            pos += NETFLOW5_HEADER.size + count * NETFLOW5_RECORD_SIZE
        assert counts == [30, 30, 5]

    def test_flow_sequence_is_cumulative(self, tmp_path):
        path = tmp_path / "c.nf5"
        with NetFlow5Writer(path) as writer:
            writer.write(make_records(40))
            writer.write(make_records(3, seed=1))
        data = path.read_bytes()
        sequences = []
        pos = 0
        while pos < len(data):
            fields = NETFLOW5_HEADER.unpack_from(data, pos)
            sequences.append(fields[5])
            pos += NETFLOW5_HEADER.size + fields[1] * NETFLOW5_RECORD_SIZE
        assert sequences == [0, 30, 40]

    def test_rejects_negative_start(self, tmp_path):
        records = make_records(3, start=-1.0)
        with pytest.raises(TraceFormatError, match="rebase"):
            write_netflow5(records, tmp_path / "neg.nf5")

    def test_rejects_timestamps_past_u32_ms(self, tmp_path):
        records = make_records(3, start=1.7e9)  # epoch seconds
        with pytest.raises(TraceFormatError, match="32-bit milliseconds"):
            write_netflow5(records, tmp_path / "epoch.nf5")

    def test_rejects_end_before_start(self, tmp_path):
        # the strict reader would reject the archive with "Last < First"
        records = make_records(3)
        records["end"][1] = records["start"][1] - 0.5
        path = tmp_path / "back.nf5"
        with pytest.raises(TraceFormatError, match="record 1: it ends"):
            write_netflow5(records, path)
        assert path.stat().st_size == 0

    @pytest.mark.parametrize("field", ["start", "end"])
    def test_rejects_non_finite_timestamps(self, tmp_path, field):
        # NaN would otherwise cast to 0 ms with only a RuntimeWarning
        records = make_records(3)
        records[field][2] = np.nan
        path = tmp_path / "nan.nf5"
        with pytest.raises(TraceFormatError, match="must be finite"):
            write_netflow5(records, path)
        assert path.stat().st_size == 0

    @pytest.mark.parametrize(
        "field, value", [("octets", 2**32 + 5), ("packets", -1)]
    )
    def test_rejects_counters_outside_u32(self, tmp_path, field, value):
        # the 32-bit wire fields would otherwise wrap silently
        records = make_records(3)
        records[field][1] = value
        path = tmp_path / "wrap.nf5"
        with pytest.raises(TraceFormatError, match=f"{field} = {value}"):
            write_netflow5(records, path)
        assert path.stat().st_size == 0

    def test_largest_u32_counters_round_trip(self, tmp_path):
        records = make_records(3)
        records["packets"] = 2**32 - 1
        records["octets"] = 0
        path = tmp_path / "max.nf5"
        write_netflow5(records, path)
        back = read_all(path)
        np.testing.assert_array_equal(back["packets"], records["packets"])
        np.testing.assert_array_equal(back["octets"], records["octets"])

    def test_rejects_wrong_dtype(self, tmp_path):
        with NetFlow5Writer(tmp_path / "d.nf5") as writer:
            with pytest.raises(TraceFormatError, match="FLOW_RECORD_DTYPE"):
                writer.write(np.zeros(3, dtype=np.float64))


class TestRoundTrip:
    def test_fields_exact_timestamps_quantized(self, tmp_path):
        records = make_records(200, spacing=0.013, span=1.7)
        path = tmp_path / "rt.nf5"
        write_netflow5(records, path)
        back = read_all(path)
        assert back.size == records.size
        for field in ("src_addr", "dst_addr", "src_port", "dst_port",
                      "protocol", "packets", "octets"):
            np.testing.assert_array_equal(back[field], records[field])
        # the documented 1 ms wire quantization
        np.testing.assert_allclose(back["start"], records["start"],
                                   atol=MS_ATOL)
        np.testing.assert_allclose(back["end"], records["end"], atol=MS_ATOL)

    def test_chunked_reader_matches_whole_read(self, tmp_path):
        records = make_records(97)
        path = tmp_path / "ch.nf5"
        write_netflow5(records, path)
        small = list(NetFlow5Reader(path, chunk=10))
        assert len(small) > 1
        np.testing.assert_array_equal(np.concatenate(small), read_all(path))

    def test_reader_is_reiterable(self, tmp_path):
        path = tmp_path / "re.nf5"
        write_netflow5(make_records(12), path)
        reader = NetFlow5Reader(path)
        first = np.concatenate(list(reader))
        second = np.concatenate(list(reader))
        np.testing.assert_array_equal(first, second)

    def test_epoch_anchored_archive_decodes(self, tmp_path):
        """A router-style header (non-zero anchor) shifts both ends."""
        path = tmp_path / "anchored.nf5"
        write_netflow5(make_records(4), path)
        data = bytearray(path.read_bytes())
        # sys_uptime=5000 ms, unix_secs=1_000_000 → base = 999_995 s
        struct.pack_into(">II", data, 4, 5_000, 1_000_000)
        path.write_bytes(bytes(data))
        back = read_all(path)
        base = 1_000_000.0 - 5.0
        np.testing.assert_allclose(
            back["start"], base + make_records(4)["start"], atol=MS_ATOL
        )


class TestCorruption:
    def test_truncated_header_names_offset(self, tmp_path):
        path = tmp_path / "t.nf5"
        write_netflow5(make_records(2), path)
        good = path.read_bytes()
        path.write_bytes(good + good[:10])  # half a second datagram header
        offset = len(good)
        with pytest.raises(
            TraceFormatError, match=rf"byte offset {offset}.*expected 24"
        ):
            read_all(path)

    def test_truncated_payload_names_offset_and_size(self, tmp_path):
        path = tmp_path / "p.nf5"
        write_netflow5(make_records(2), path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(
            TraceFormatError,
            match=r"truncated NetFlow v5 datagram at byte offset 24.*"
            r"expected 96 \(2 records of 48 bytes\)",
        ):
            read_all(path)

    def test_bad_version_names_offset(self, tmp_path):
        path = tmp_path / "v.nf5"
        write_netflow5(make_records(2), path)
        data = bytearray(path.read_bytes())
        data[1] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(
            TraceFormatError, match="bad NetFlow version 9 at byte offset 0"
        ):
            read_all(path)

    def test_implausible_count_rejected(self, tmp_path):
        path = tmp_path / "n.nf5"
        write_netflow5(make_records(2), path)
        data = bytearray(path.read_bytes())
        struct.pack_into(">H", data, 2, 0)
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="implausible record count"):
            read_all(path)

    def test_last_before_first_rejected(self, tmp_path):
        path = tmp_path / "lf.nf5"
        write_netflow5(make_records(2, span=1.0), path)
        data = bytearray(path.read_bytes())
        # swap record 0's first/last words (first at +24, last at +28)
        rec = NETFLOW5_HEADER.size
        first = bytes(data[rec + 24: rec + 28])
        last = bytes(data[rec + 28: rec + 32])
        data[rec + 24: rec + 28] = last
        data[rec + 28: rec + 32] = first
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="Last < First"):
            read_all(path)

    def test_chunk_must_be_positive(self, tmp_path):
        path = tmp_path / "x.nf5"
        write_netflow5(make_records(2), path)
        with pytest.raises(TraceFormatError, match="chunk"):
            NetFlow5Reader(path, chunk=0)


class TestBulkDecoder:
    """Read blocks far smaller than a datagram decode the same records."""

    @pytest.mark.parametrize("block", [7, 24, 100, 300, 1464, 1465])
    def test_small_blocks_decode_bitwise_as_whole_file(
        self, tmp_path, monkeypatch, block
    ):
        path = tmp_path / "mixed.nf5"
        write_mixed_archive(path)
        whole = read_all(path, chunk=10**6)
        monkeypatch.setattr(netflow5, "_BLOCK_BYTES", block)
        assert read_all(path).tobytes() == whole.tobytes()

    def test_anchors_apply_per_datagram(self, tmp_path, monkeypatch):
        path = tmp_path / "anchored.nf5"
        data = bytearray(write_mixed_archive(path))
        rng = np.random.default_rng(4)
        expected = []
        for offset, count in datagram_offsets(data):
            uptime, secs, nsecs = (int(v) for v in rng.integers(0, 2**31, 3))
            struct.pack_into(">III", data, offset + 4, uptime, secs, nsecs)
            wire = np.frombuffer(
                bytes(data), dtype=netflow5._RECORD_DTYPE, count=count,
                offset=offset + NETFLOW5_HEADER.size,
            )
            base = float(secs) + float(nsecs) * 1e-9 - float(uptime) / 1000.0
            expected.append(base + wire["first"].astype(np.float64) / 1000.0)
        path.write_bytes(bytes(data))
        monkeypatch.setattr(netflow5, "_BLOCK_BYTES", 300)
        np.testing.assert_array_equal(
            read_all(path)["start"], np.concatenate(expected)
        )

    @pytest.mark.parametrize("chunk", [1, 7, 30, 31, 65536])
    def test_blocks_cut_at_the_first_datagram_reaching_chunk(
        self, tmp_path, monkeypatch, chunk
    ):
        path = tmp_path / "mixed.nf5"
        data = write_mixed_archive(path)
        expected, pending = [], 0
        for _, count in datagram_offsets(data):
            pending += count
            if pending >= chunk:
                expected.append(pending)
                pending = 0
        if pending:
            expected.append(pending)
        whole = read_all(path)
        monkeypatch.setattr(netflow5, "_BLOCK_BYTES", 300)
        blocks = list(NetFlow5Reader(path, chunk=chunk))
        assert [b.size for b in blocks] == expected
        assert np.concatenate(blocks).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("chunk", [1, 7, 30, 31, 200])
    def test_read_blocks_follow_chunk(self, tmp_path, monkeypatch, chunk):
        """A small-``chunk`` reader reads ``chunk`` records' bytes at a
        time, so its read blocks cut through datagrams, and still yields
        the default reader's records bit for bit."""
        path = tmp_path / "mixed.nf5"
        write_mixed_archive(path)
        whole = read_all(path)
        sizes = []

        class Spy:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def read(self, size):
                sizes.append(size)
                return self.handle.read(size)

        monkeypatch.setattr(
            netflow5, "open", lambda *args: Spy(open(*args)), raising=False
        )
        back = read_all(path, chunk=chunk)
        assert back.tobytes() == whole.tobytes()
        assert set(sizes) == {chunk * NETFLOW5_RECORD_SIZE}
        assert len(sizes) > 2

    @pytest.mark.parametrize("block", [300, 1 << 20])
    def test_oversized_datagram_decodes(self, tmp_path, monkeypatch, block):
        """A cflowd-style datagram of 100 records (> 30, <= 8192)."""
        records = make_records(100)
        path = tmp_path / "split.nf5"
        write_netflow5(records, path)
        data = path.read_bytes()
        payload = b"".join(
            data[offset + NETFLOW5_HEADER.size:
                 offset + NETFLOW5_HEADER.size + count * NETFLOW5_RECORD_SIZE]
            for offset, count in datagram_offsets(data)
        )
        header = bytearray(data[: NETFLOW5_HEADER.size])
        struct.pack_into(">H", header, 2, 100)
        big = tmp_path / "oversized.nf5"
        big.write_bytes(bytes(header) + payload + data)
        monkeypatch.setattr(netflow5, "_BLOCK_BYTES", block)
        back = list(NetFlow5Reader(big, chunk=50))
        # the 100-record datagram is never split, whatever the chunk
        assert [b.size for b in back] == [100, 60, 40]
        single = read_all(path)
        assert np.concatenate(back).tobytes() == (
            np.concatenate([single, single]).tobytes()
        )
