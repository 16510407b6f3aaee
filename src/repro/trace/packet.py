"""Packet records and packet traces.

The paper's measurement infrastructure taps OC-12 links and records, for
every packet, a timestamp plus the first 44 bytes (enough for the IP and
transport headers).  Our equivalent keeps exactly the fields the paper's
analysis consumes: timestamp, the 5-tuple, and the wire size.

Packets are stored as a numpy structured array (:data:`PACKET_DTYPE`) so a
multi-million-packet trace is a single contiguous buffer; the scalar
:class:`PacketRecord` view exists for ergonomic access and tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ParameterError

__all__ = ["PACKET_DTYPE", "PacketRecord", "PacketTrace", "concatenate_packets",
           "packets_from_columns"]

#: On-disk / in-memory packet layout (little-endian, packed: 23 bytes).
PACKET_DTYPE = np.dtype(
    [
        ("timestamp", "<f8"),  # seconds since trace start
        ("src_addr", "<u4"),  # IPv4 source address
        ("dst_addr", "<u4"),  # IPv4 destination address
        ("src_port", "<u2"),
        ("dst_port", "<u2"),
        ("protocol", "u1"),  # IP protocol number (6 TCP, 17 UDP, ...)
        ("size", "<u2"),  # wire size in bytes (<= 65535)
    ]
)

#: One packet record as opaque bytes, for whole-record copies.
_RECORD = np.dtype((np.void, PACKET_DTYPE.itemsize))


def concatenate_packets(blocks) -> np.ndarray:
    """The :data:`PACKET_DTYPE` blocks end to end (one block as is).

    Whole records are copied through a void view: numpy concatenates the
    packed packet dtype field by field otherwise, several times slower.
    """
    blocks = list(blocks)
    if len(blocks) == 1:
        return blocks[0]
    if not blocks:
        return np.zeros(0, dtype=PACKET_DTYPE)
    return np.concatenate([block.view(_RECORD) for block in blocks]).view(
        PACKET_DTYPE
    )


@dataclass(frozen=True)
class PacketRecord:
    """A single captured packet (scalar view of one :data:`PACKET_DTYPE` row)."""

    timestamp: float
    src_addr: int
    dst_addr: int
    src_port: int
    dst_port: int
    protocol: int
    size: int

    @classmethod
    def from_row(cls, row) -> "PacketRecord":
        """Build from one element of a :data:`PACKET_DTYPE` array."""
        return cls(
            timestamp=float(row["timestamp"]),
            src_addr=int(row["src_addr"]),
            dst_addr=int(row["dst_addr"]),
            src_port=int(row["src_port"]),
            dst_port=int(row["dst_port"]),
            protocol=int(row["protocol"]),
            size=int(row["size"]),
        )

    def to_row(self) -> np.ndarray:
        """Return a length-1 :data:`PACKET_DTYPE` array holding this packet."""
        row = np.zeros(1, dtype=PACKET_DTYPE)
        row["timestamp"] = self.timestamp
        row["src_addr"] = self.src_addr
        row["dst_addr"] = self.dst_addr
        row["src_port"] = self.src_port
        row["dst_port"] = self.dst_port
        row["protocol"] = self.protocol
        row["size"] = self.size
        return row


def packets_from_columns(
    timestamps,
    src_addrs,
    dst_addrs,
    src_ports,
    dst_ports,
    protocols,
    sizes,
) -> np.ndarray:
    """Assemble a packet array from per-field columns (bulk constructor)."""
    timestamps = np.asarray(timestamps, dtype=np.float64)
    n = timestamps.size
    packets = np.empty(n, dtype=PACKET_DTYPE)  # every field is written
    packets["timestamp"] = timestamps
    packets["src_addr"] = np.asarray(src_addrs, dtype=np.uint32)
    packets["dst_addr"] = np.asarray(dst_addrs, dtype=np.uint32)
    packets["src_port"] = np.asarray(src_ports, dtype=np.uint16)
    packets["dst_port"] = np.asarray(dst_ports, dtype=np.uint16)
    packets["protocol"] = np.asarray(protocols, dtype=np.uint8)
    packets["size"] = np.asarray(sizes, dtype=np.uint16)
    return packets


class PacketTrace:
    """A captured (or synthesised) packet trace on one link.

    Wraps the packet array with link metadata, mirroring one row of the
    paper's Table I: a link has a capacity, the trace covers a duration,
    and the headline statistic is the average utilisation.
    """

    def __init__(
        self,
        packets: np.ndarray,
        *,
        link_capacity: float,
        duration: float | None = None,
        name: str = "trace",
    ) -> None:
        packets = np.asarray(packets)
        if packets.dtype != PACKET_DTYPE:
            raise ParameterError(
                f"packets must have PACKET_DTYPE, got {packets.dtype}"
            )
        if link_capacity <= 0:
            raise ParameterError("link_capacity must be > 0 (bits/second)")
        self.packets = packets
        self.link_capacity = float(link_capacity)
        self.name = str(name)
        if duration is None:
            duration = float(packets["timestamp"][-1]) if packets.size else 0.0
        if packets.size and duration < float(packets["timestamp"].max()):
            raise ParameterError(
                "duration is shorter than the last packet timestamp"
            )
        self.duration = float(duration)

    def __len__(self) -> int:
        return int(self.packets.size)

    def __repr__(self) -> str:
        return (
            f"PacketTrace(name={self.name!r}, packets={len(self)}, "
            f"duration={self.duration:g}s, "
            f"utilization={self.utilization:.1%})"
        )

    @property
    def total_bytes(self) -> int:
        return int(self.packets["size"].sum(dtype=np.int64))

    @property
    def mean_rate_bps(self) -> float:
        """Average link throughput in bits/second (the Table I column)."""
        if self.duration == 0.0:
            return 0.0
        return 8.0 * self.total_bytes / self.duration

    @property
    def utilization(self) -> float:
        """Mean rate over capacity — the paper's links stay below 50%."""
        return self.mean_rate_bps / self.link_capacity

    def is_sorted(self) -> bool:
        ts = self.packets["timestamp"]
        return bool(np.all(ts[1:] >= ts[:-1]))

    def sorted(self) -> "PacketTrace":
        """Return a timestamp-ordered copy (taps always emit in order)."""
        order = np.argsort(self.packets["timestamp"], kind="stable")
        return PacketTrace(
            self.packets[order],
            link_capacity=self.link_capacity,
            duration=self.duration,
            name=self.name,
        )

    def window(self, start: float, end: float, *, rebase: bool = False) -> "PacketTrace":
        """Packets with ``start <= t < end``; optionally rebase time to 0.

        This is how the paper cuts its long traces into 30-minute analysis
        intervals (section III).
        """
        if end <= start:
            raise ParameterError(f"empty window [{start}, {end})")
        ts = self.packets["timestamp"]
        mask = (ts >= start) & (ts < end)
        packets = self.packets[mask].copy()
        if rebase:
            packets["timestamp"] -= start
            duration = end - start
        else:
            # absolute timestamps kept: the duration must cover them, so
            # rate/utilization of a non-rebased window refer to [0, end)
            duration = end
        return PacketTrace(
            packets,
            link_capacity=self.link_capacity,
            duration=duration,
            name=f"{self.name}[{start:g},{end:g})",
        )
