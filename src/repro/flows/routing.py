"""Routable-prefix flow definition — the section VI-A extension.

The paper: "A straightforward extension to this flow definition would be
the use of 'routable' prefixes (i.e., prefixes present in the forwarding
table of the router) to define flows.  Such an extension would result in
an additional decrease of the burden for the router given the level of
flow aggregation (with /8 and /16 prefixes, for example)".

This module implements that extension: a longest-prefix-match forwarding
table mapping packets to their routing entry, so the flow exporter can
aggregate by FIB entry instead of a fixed /24.  Lookups are vectorised:
one membership test per distinct prefix length, from /32 down.
"""

from __future__ import annotations

import numpy as np

from .._util import as_rng
from ..exceptions import ParameterError
from .keys import PrefixKey, prefix_of

__all__ = ["RoutingTable", "export_routable_flows", "routed_packets"]


class RoutingTable:
    """A longest-prefix-match table of routable prefixes.

    Entries are :class:`~repro.flows.keys.PrefixKey` objects.  A default
    route (/0) can be included; packets matching no entry map to entry
    index ``-1``.
    """

    def __init__(self, entries) -> None:
        self.entries: list[PrefixKey] = list(entries)
        if not self.entries:
            raise ParameterError("routing table must have at least one entry")
        seen = set()
        for entry in self.entries:
            key = (entry.prefix, entry.length)
            if key in seen:
                raise ParameterError(f"duplicate routing entry {entry}")
            seen.add(key)
        # group entry indices by prefix length for vectorised LPM
        self._by_length: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for length in sorted({e.length for e in self.entries}, reverse=True):
            idx = np.array(
                [i for i, e in enumerate(self.entries) if e.length == length],
                dtype=np.int64,
            )
            prefixes = np.array(
                [self.entries[i].prefix for i in idx], dtype=np.uint32
            )
            order = np.argsort(prefixes)
            self._by_length[length] = (prefixes[order], idx[order])

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"RoutingTable(entries={len(self)})"

    @classmethod
    def synthetic(
        cls,
        address_space,
        *,
        coarse_fraction: float = 0.3,
        coarse_length: int = 16,
        rng=None,
    ) -> "RoutingTable":
        """A table covering an :class:`~repro.netsim.AddressSpace`.

        A fraction of the space's /24 destination networks is aggregated
        into ``/coarse_length`` supernets (as a backbone FIB would), the
        rest announced as /24s, plus a default route.
        """
        if not 0.0 <= coarse_fraction <= 1.0:
            raise ParameterError("coarse_fraction must lie in [0, 1]")
        rng = as_rng(rng)
        base = address_space.dst_base
        n = address_space.n_dst_prefixes
        slash24 = (np.uint32(base) >> np.uint32(8)) + np.arange(n, dtype=np.uint32)
        coarse_mask = rng.random(n) < coarse_fraction
        entries: list[PrefixKey] = []
        seen_coarse: set[int] = set()
        for p24, is_coarse in zip(slash24, coarse_mask):
            if is_coarse:
                supernet = int(p24) >> (24 - coarse_length)
                if supernet not in seen_coarse:
                    seen_coarse.add(supernet)
                    entries.append(PrefixKey(supernet, coarse_length))
            else:
                entries.append(PrefixKey(int(p24), 24))
        entries.append(PrefixKey(0, 0))  # default route
        return cls(entries)

    def lookup(self, addresses) -> np.ndarray:
        """Longest-prefix-match entry index per address (-1 if no match)."""
        addresses = np.asarray(addresses, dtype=np.uint32)
        result = np.full(addresses.shape, -1, dtype=np.int64)
        unmatched = np.ones(addresses.shape, dtype=bool)
        for length, (prefixes, idx) in self._by_length.items():
            if not unmatched.any():
                break
            candidate = prefix_of(addresses[unmatched], length)
            pos = np.searchsorted(prefixes, candidate)
            pos = np.clip(pos, 0, prefixes.size - 1)
            hit = prefixes[pos] == candidate
            targets = np.flatnonzero(unmatched)
            matched_targets = targets[hit]
            result[matched_targets] = idx[pos[hit]]
            unmatched[matched_targets] = False
        return result

    def entry_of(self, index: int) -> PrefixKey:
        """The table entry for a lookup result (raises on -1)."""
        if index < 0:
            raise ParameterError("address matched no routing entry")
        return self.entries[index]


def routed_packets(packets, table: RoutingTable) -> np.ndarray:
    """The packets ``table`` forwards, keyed by their forwarding entry.

    Packets whose destination matches no entry are dropped (a router
    would not forward them); the rest are copied with ``dst_addr``
    rewritten to the matching entry's index, so /32 prefix accounting
    groups them by entry.  Measure the result with ``key="prefix",
    prefix_length=32`` to get the FIB-keyed flows and rate series in one
    pass (``MeasurementEngine().measure_trace``).
    """
    from ..trace.packet import PACKET_DTYPE, PacketTrace

    if isinstance(packets, PacketTrace):
        packets = packets.packets
    packets = np.asarray(packets)
    if packets.dtype != PACKET_DTYPE:
        raise ParameterError(f"expected PACKET_DTYPE, got {packets.dtype}")

    entry_index = table.lookup(packets["dst_addr"])
    routed = entry_index >= 0
    rewritten = packets[routed].copy()
    rewritten["dst_addr"] = entry_index[routed].astype(np.uint32)
    return rewritten


def export_routable_flows(
    packets,
    table: RoutingTable,
    *,
    timeout: float = 60.0,
    min_packets: int = 2,
):
    """Flow accounting keyed by forwarding-table entry (section VI-A).

    Accounts :func:`routed_packets`, so packets whose destination matches
    no entry are dropped from the accounting.  Returns a
    :class:`~repro.flows.records.FlowSet` with ``key_kind="prefix"`` whose
    keys are the *entry indices* into ``table`` (use
    :meth:`RoutingTable.entry_of` to materialise the prefix).
    """
    from .exporter import export_flows

    return export_flows(
        routed_packets(packets, table),
        key="prefix",
        prefix_length=32,
        timeout=timeout,
        min_packets=min_packets,
    )
