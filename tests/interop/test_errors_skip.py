"""``errors="skip"``: corrupt telemetry degrades, strict still raises.

Real exporter archives arrive torn — a capture cut off mid-datagram, a
middlebox rewriting version fields, a template nobody sent.  Each reader
gains the same contract:

* ``errors="strict"`` (the default) keeps the existing loud
  :class:`TraceFormatError` behaviour — pinned here next to each skip
  case so the two modes cannot drift apart;
* ``errors="skip"`` drops exactly the malformed structure, counts it in
  ``.skipped`` (reset at the start of every pass), and — crucially —
  only *re-synchronises* when the wire format still tells it where the
  next structure starts (a self-sizing datagram/message).  When the
  boundary is lost (torn header, implausible count/length) the pass
  stops instead of guessing at bytes;
* the adapter surfaces the count as ``records_skipped`` and validates
  the ``errors`` knob itself.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.exceptions import ParameterError, TraceFormatError
from repro.interop import (
    IpfixReader,
    NetFlow5Reader,
    PcapReader,
    open_import_stream,
    write_ipfix,
    write_netflow5,
)
from repro.interop import netflow5
from repro.interop.netflow5 import NETFLOW5_HEADER, NETFLOW5_RECORD_SIZE
from repro.trace import PACKET_DTYPE

from .conftest import make_records
from .test_ipfix import build_message, build_set
from .test_ipfix import read_all as read_ipfix
from .test_netflow5 import read_all as read_nf5
from .test_pcap import build_pcap, ipv4_payload
from .test_pcap import read_all as read_pcap


def _nf5_bytes(n, **kwargs):
    """One NetFlow v5 file's raw bytes holding ``n`` records."""

    def build(tmp_path):
        path = tmp_path / f"part-{n}.nf5"
        write_netflow5(make_records(n, **kwargs), path)
        return path.read_bytes()

    return build


class TestNetFlow5Skip:
    def test_errors_knob_is_validated(self, tmp_path):
        path = tmp_path / "x.nf5"
        write_netflow5(make_records(2), path)
        with pytest.raises(ParameterError, match="errors"):
            NetFlow5Reader(path, errors="ignore")

    def test_bad_version_datagram_is_hopped(self, tmp_path):
        # two datagrams; the first one's version is mangled — its count
        # still sizes it, so the reader hops to the second
        first = _nf5_bytes(2)(tmp_path)
        second = _nf5_bytes(4, seed=1)(tmp_path)
        data = bytearray(first + second)
        data[1] = 9
        path = tmp_path / "v.nf5"
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="bad NetFlow version"):
            read_nf5(path)
        reader = NetFlow5Reader(path, errors="skip")
        back = np.concatenate(list(reader))
        assert back.size == 4
        assert reader.skipped == 2  # the hopped datagram's records

    def test_truncated_trailing_datagram_stops_the_pass(self, tmp_path):
        first = _nf5_bytes(3)(tmp_path)
        second = _nf5_bytes(2, seed=1)(tmp_path)
        path = tmp_path / "t.nf5"
        path.write_bytes((first + second)[:-20])
        with pytest.raises(TraceFormatError, match="truncated"):
            read_nf5(path)
        reader = NetFlow5Reader(path, errors="skip")
        assert np.concatenate(list(reader)).size == 3
        assert reader.skipped == 2

    def test_torn_header_stops_the_pass(self, tmp_path):
        good = _nf5_bytes(2)(tmp_path)
        path = tmp_path / "h.nf5"
        path.write_bytes(good + good[:10])
        reader = NetFlow5Reader(path, errors="skip")
        assert np.concatenate(list(reader)).size == 2
        assert reader.skipped == 1

    def test_implausible_count_stops_the_pass(self, tmp_path):
        # a zeroed count field desynchronises the stream: nothing after
        # the first datagram can be trusted, so skip mode stops there
        first = _nf5_bytes(3)(tmp_path)
        second = bytearray(_nf5_bytes(2, seed=1)(tmp_path))
        struct.pack_into(">H", second, 2, 0)
        path = tmp_path / "c.nf5"
        path.write_bytes(first + bytes(second))
        with pytest.raises(TraceFormatError, match="implausible"):
            read_nf5(path)
        reader = NetFlow5Reader(path, errors="skip")
        assert np.concatenate(list(reader)).size == 3
        assert reader.skipped == 1

    def test_last_before_first_drops_single_records(self, tmp_path):
        path = tmp_path / "lf.nf5"
        write_netflow5(make_records(3, span=1.0), path)
        data = bytearray(path.read_bytes())
        rec = NETFLOW5_HEADER.size  # record 0: first at +24, last at +28
        first = bytes(data[rec + 24: rec + 28])
        data[rec + 24: rec + 28] = data[rec + 28: rec + 32]
        data[rec + 28: rec + 32] = first
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="Last < First"):
            read_nf5(path)
        reader = NetFlow5Reader(path, errors="skip")
        assert np.concatenate(list(reader)).size == 2
        assert reader.skipped == 1

    def test_skipped_resets_every_pass(self, tmp_path):
        good = _nf5_bytes(2)(tmp_path)
        path = tmp_path / "r.nf5"
        path.write_bytes(good + good[:10])
        reader = NetFlow5Reader(path, errors="skip")
        list(reader)
        list(reader)  # re-iteration must not double-count
        assert reader.skipped == 1


def _swap_first_last(data, record_offset):
    """Make the record at ``record_offset`` end before it starts."""
    first = bytes(data[record_offset + 24: record_offset + 28])
    data[record_offset + 24: record_offset + 28] = (
        data[record_offset + 28: record_offset + 32]
    )
    data[record_offset + 28: record_offset + 32] = first


def _damaged_nf5(case, tmp_path):
    """``(archive bytes, byte offset of its bad datagram)``.

    The bad datagram follows a 35-record good run (two datagrams), so
    good records precede the damage in every case.
    """
    first = _nf5_bytes(35)(tmp_path)
    second = bytearray(_nf5_bytes(31, seed=1)(tmp_path))
    bad = len(first)
    if case == "bad version":
        second[1] = 9
    elif case == "implausible count":
        struct.pack_into(">H", second, 2, 0)
    elif case == "Last < First":
        _swap_first_last(second, NETFLOW5_HEADER.size + 3 * NETFLOW5_RECORD_SIZE)
    elif case == "torn header":
        return first + bytes(second[:10]), bad
    elif case == "truncated tail":
        # keep the second datagram's header, cut its payload short
        return first + bytes(second[: NETFLOW5_HEADER.size + 100]), bad
    return first + bytes(second), bad


class TestNetFlow5SkipAcrossBlocks:
    """A bad datagram split across read blocks is handled as a whole."""

    CASES = (
        "bad version", "torn header", "implausible count",
        "truncated tail", "Last < First",
    )

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("cut", [5, 20, 60, 500])
    def test_same_records_and_skips_when_straddling(
        self, tmp_path, monkeypatch, case, cut
    ):
        data, bad = _damaged_nf5(case, tmp_path)
        path = tmp_path / "damaged.nf5"
        path.write_bytes(data)
        # the default chunk reads the whole archive as one block
        reader = NetFlow5Reader(path, errors="skip")
        expected = np.concatenate(list(reader))
        skipped = reader.skipped
        with pytest.raises(TraceFormatError) as whole_error:
            read_nf5(path)
        # the first read block ends ``cut`` bytes into the bad datagram
        monkeypatch.setattr(netflow5, "_BLOCK_BYTES", bad + cut)
        reader = NetFlow5Reader(path, errors="skip")
        back = np.concatenate(list(reader))
        assert back.tobytes() == expected.tobytes()
        assert reader.skipped == skipped > 0
        with pytest.raises(TraceFormatError) as split_error:
            read_nf5(path)
        assert str(split_error.value) == str(whole_error.value)

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("chunk", [1, 7, 31])
    def test_small_chunk_reads_as_the_default_reader(
        self, tmp_path, case, chunk
    ):
        """``chunk`` sizes the read blocks (``chunk`` x 48 bytes), which
        then cut through the bad datagram and its neighbours; records,
        skips and strict errors stay those of one whole-archive read."""
        data, _ = _damaged_nf5(case, tmp_path)
        path = tmp_path / "damaged.nf5"
        path.write_bytes(data)
        whole = NetFlow5Reader(path, errors="skip")
        expected = np.concatenate(list(whole))
        small = NetFlow5Reader(path, errors="skip", chunk=chunk)
        back = np.concatenate(list(small))
        assert back.tobytes() == expected.tobytes()
        assert small.skipped == whole.skipped > 0
        with pytest.raises(TraceFormatError) as whole_error:
            read_nf5(path)
        with pytest.raises(TraceFormatError) as small_error:
            read_nf5(path, chunk=chunk)
        assert str(small_error.value) == str(whole_error.value)

    @pytest.mark.parametrize("case", CASES)
    def test_good_records_before_the_damage_survive(self, tmp_path, case):
        data, _ = _damaged_nf5(case, tmp_path)
        path = tmp_path / "damaged.nf5"
        path.write_bytes(data)
        reader = NetFlow5Reader(path, errors="skip")
        back = np.concatenate(list(reader))
        good = read_nf5(tmp_path / "part-35.nf5")
        assert back[:35].tobytes() == good.tobytes()
        expected_size, expected_skipped = {
            "bad version": (36, 30),
            "torn header": (35, 1),
            "implausible count": (35, 1),
            "truncated tail": (35, 30),
            "Last < First": (65, 1),
        }[case]
        assert (back.size, reader.skipped) == (
            expected_size, expected_skipped
        )


class TestIpfixSkip:
    def test_errors_knob_is_validated(self, tmp_path):
        path = tmp_path / "x.ipfix"
        write_ipfix(make_records(2), path)
        with pytest.raises(ParameterError, match="errors"):
            IpfixReader(path, errors="drop")

    def test_bad_version_message_is_hopped(self, tmp_path):
        # each exported file opens with its own template set, so the
        # second message chain decodes on its own
        a = tmp_path / "a.ipfix"
        b = tmp_path / "b.ipfix"
        write_ipfix(make_records(2), a)
        write_ipfix(make_records(4, seed=1), b)
        data = bytearray(a.read_bytes() + b.read_bytes())
        struct.pack_into(">H", data, 0, 9)  # NetFlow v9, length intact
        path = tmp_path / "v.ipfix"
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="bad IPFIX version"):
            read_ipfix(path)
        reader = IpfixReader(path, errors="skip")
        assert np.concatenate(list(reader)).size == 4
        assert reader.skipped == 1

    def test_truncated_trailing_message_stops_the_pass(self, tmp_path):
        a = tmp_path / "a.ipfix"
        b = tmp_path / "b.ipfix"
        write_ipfix(make_records(3), a)
        write_ipfix(make_records(2, seed=1), b)
        path = tmp_path / "t.ipfix"
        path.write_bytes((a.read_bytes() + b.read_bytes())[:-11])
        with pytest.raises(TraceFormatError, match="truncated"):
            read_ipfix(path)
        reader = IpfixReader(path, errors="skip")
        assert np.concatenate(list(reader)).size == 3
        assert reader.skipped == 1

    def test_unknown_template_data_set_is_skipped(self, tmp_path):
        a = tmp_path / "a.ipfix"
        write_ipfix(make_records(2), a)
        orphan = build_message([build_set(999, b"\x00" * 8)])
        path = tmp_path / "u.ipfix"
        path.write_bytes(a.read_bytes() + orphan)
        with pytest.raises(TraceFormatError, match="references template 999"):
            read_ipfix(path)
        reader = IpfixReader(path, errors="skip")
        assert np.concatenate(list(reader)).size == 2
        assert reader.skipped == 1

    def test_skipped_resets_every_pass(self, tmp_path):
        a = tmp_path / "a.ipfix"
        write_ipfix(make_records(2), a)
        path = tmp_path / "r.ipfix"
        path.write_bytes(a.read_bytes() + build_message([build_set(999, b"")]))
        reader = IpfixReader(path, errors="skip")
        list(reader)
        list(reader)
        assert reader.skipped == 1


class TestPcapSkip:
    def test_errors_knob_is_validated(self, tmp_path):
        path = tmp_path / "x.pcap"
        path.write_bytes(build_pcap([(1, 0, ipv4_payload())]))
        with pytest.raises(ParameterError, match="errors"):
            PcapReader(path, errors="lenient")

    def test_global_header_is_always_strict(self, tmp_path):
        # without a sane global header nothing downstream is decodable,
        # so skip mode refuses it just as loudly as strict
        path = tmp_path / "g.pcap"
        path.write_bytes(build_pcap([])[:15])
        with pytest.raises(TraceFormatError, match="global header"):
            PcapReader(path, errors="skip")

    def test_truncated_trailing_record_stops_the_pass(self, tmp_path):
        records = [(i + 1, 0, ipv4_payload()) for i in range(5)]
        path = tmp_path / "t.pcap"
        path.write_bytes(build_pcap(records)[:-10])
        with pytest.raises(TraceFormatError, match="truncated pcap record"):
            read_pcap(path)
        reader = PcapReader(path, errors="skip")
        back = np.concatenate(list(reader.chunks()))
        assert back.size == 4
        assert reader.skipped == 1

    def test_skipped_resets_every_pass(self, tmp_path):
        records = [(1, 0, ipv4_payload())]
        path = tmp_path / "r.pcap"
        path.write_bytes(build_pcap(records)[:-4])
        reader = PcapReader(path, errors="skip")
        list(reader.chunks())
        list(reader.chunks())
        assert reader.skipped == 1


class TestAdapterSkip:
    def test_errors_knob_is_validated(self, tmp_path):
        path = tmp_path / "x.nf5"
        write_netflow5(make_records(2), path)
        with pytest.raises(ParameterError, match="errors"):
            open_import_stream(path, errors="ignore")

    def test_stream_surfaces_records_skipped(self, tmp_path):
        # corrupt the SECOND datagram: the first must stay intact for
        # the adapter's format sniffing to recognise the archive
        first = _nf5_bytes(4)(tmp_path)
        second = _nf5_bytes(2, seed=1)(tmp_path)
        data = bytearray(first + second)
        data[len(first) + 1] = 9
        path = tmp_path / "v.nf5"
        path.write_bytes(bytes(data))
        stream = open_import_stream(path, errors="skip")
        chunks = list(stream)
        assert sum(c.size for c in chunks) > 0
        assert stream.records_skipped == 2
        assert chunks[0].dtype == PACKET_DTYPE

    def test_strict_is_the_default(self, tmp_path):
        first = _nf5_bytes(4)(tmp_path)
        second = _nf5_bytes(2, seed=1)(tmp_path)
        data = bytearray(first + second)
        data[len(first) + 1] = 9
        path = tmp_path / "s.nf5"
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="bad NetFlow version"):
            list(open_import_stream(path))
