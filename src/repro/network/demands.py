"""Origin-destination demand matrices of flow populations.

Where :class:`repro.network.analytic.AnalyticDemand` carries *measured*
three-parameter statistics (the analytic moment-sum path), a
:class:`NetworkDemand` carries a full :class:`~repro.netsim.LinkWorkload`
flow population: the network engine synthesizes it packet by packet,
routes its flows, and superposes it with the other demands on every link
it crosses.

Each demand owns a deterministic ``SeedSequence``: demand ``i`` of a
network seeded with ``seed`` draws from ``SeedSequence([seed, i])``
unless the demand pins its own ``seed`` — in which case it draws from
``SeedSequence(demand.seed)`` exactly like a standalone
:meth:`~repro.netsim.LinkWorkload.synthesize` call, which is what makes
the one-demand one-link network reproduce the single-link engines bit
for bit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..exceptions import ParameterError, TopologyError
from ..netsim.addresses import AddressSpace
from ..netsim.workloads import LinkWorkload
from .topology import Topology

__all__ = [
    "NetworkDemand",
    "DemandMatrix",
    "demand_address_space",
    "destination_keys_overlap",
]

#: Address stride per demand: the default 4096 /24 destination prefixes
#: span exactly 2^20 addresses, so tiling ``dst_base`` by 2^20 keeps
#: default-sized demand populations disjoint.
_DST_STRIDE = 1 << 20

_ADDRESSES = 1 << 32


def demand_address_space(index: int, template: AddressSpace | None = None):
    """A per-demand destination-address block, tiled by position.

    Demand ``index`` keeps the template's population shape but draws its
    destinations from a base ``index * 2**20`` above the template's, so
    the ECMP hash spreads demands independently and, for populations of
    at most 4096 /24 prefixes, five-tuples of different demands never
    share a destination address.  The blocks are *not* disjoint in
    general: a larger ``n_dst_prefixes`` overlaps the next demand's
    block, and a prefix flow key shorter than /12 can put two blocks
    under one key — :func:`destination_keys_overlap` says when.  Index
    0 is the template itself — which is what keeps a one-demand network
    bit-for-bit equal to the standalone single-link engines.  The
    engine applies this to every demand
    (:meth:`DemandMatrix.with_tiled_addresses`); build workloads with a
    custom ``AddressSpace`` to shift the whole tiling, not to escape it.
    """
    template = template if template is not None else AddressSpace()
    base = (template.dst_base + int(index) * _DST_STRIDE) % _ADDRESSES
    return dataclasses.replace(template, dst_base=base)


def _destination_key_ranges(space: AddressSpace, shift: int):
    """Inclusive ranges of the destination keys ``space`` can produce.

    Destinations lie in ``[base, base + n_dst_prefixes * 256)`` modulo
    2**32, ``base`` being ``dst_base`` rounded down to its /24; a
    wrapping block is two ranges.  ``shift`` drops the address bits the
    flow key ignores.
    """
    base = (int(space.dst_base) % _ADDRESSES) & ~0xFF
    end = base + int(space.n_dst_prefixes) * 256
    if end - base >= _ADDRESSES:
        pieces = [(0, _ADDRESSES - 1)]
    elif end <= _ADDRESSES:
        pieces = [(base, end - 1)]
    else:
        pieces = [(base, _ADDRESSES - 1), (0, end - _ADDRESSES - 1)]
    return [(lo >> shift, hi >> shift) for lo, hi in pieces]


def destination_keys_overlap(
    spaces, *, key: str = "five_tuple", prefix_length: int = 24
) -> bool:
    """Whether flows of two of ``spaces`` can share a flow key.

    Conservative: compares each population's whole destination range,
    coarsened to the key's granularity (the full address for
    ``"five_tuple"`` keys, the /``prefix_length`` prefix for
    ``"prefix"`` keys).  ``False`` guarantees that every flow key on a
    link carrying these populations belongs to exactly one of them.
    """
    shift = 0 if key == "five_tuple" else 32 - int(prefix_length)
    ranges = [_destination_key_ranges(space, shift) for space in spaces]
    return any(
        lo_a <= hi_b and lo_b <= hi_a
        for i, a in enumerate(ranges)
        for b in ranges[i + 1:]
        for lo_a, hi_a in a
        for lo_b, hi_b in b
    )


@dataclass(frozen=True)
class NetworkDemand:
    """One OD pair carrying a synthesizable flow population."""

    source: str
    sink: str
    workload: LinkWorkload
    #: Optional explicit synthesis seed.  ``None`` derives
    #: ``SeedSequence([network_seed, index])`` from the demand's position.
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "source", str(self.source))
        object.__setattr__(self, "sink", str(self.sink))
        if self.source == self.sink:
            raise TopologyError("demand source and sink must differ")
        if not isinstance(self.workload, LinkWorkload):
            raise ParameterError(
                f"demand workload must be a LinkWorkload, got "
                f"{type(self.workload).__name__}"
            )
        if self.seed is not None and int(self.seed) < 0:
            raise ParameterError(f"demand seed must be >= 0, got {self.seed!r}")

    @property
    def od(self) -> tuple[str, str]:
        return (self.source, self.sink)

    def seed_sequence(self, network_seed: int, index: int) -> np.random.SeedSequence:
        """The demand's synthesis seed (see module docs)."""
        if self.seed is not None:
            return np.random.SeedSequence(int(self.seed))
        return np.random.SeedSequence([int(network_seed), int(index)])


class DemandMatrix:
    """An ordered collection of :class:`NetworkDemand` entries.

    Order matters: it fixes each demand's derived seed and the
    deterministic tie-break when merging packets on a shared link, so a
    matrix is a reproducible object, not a bag.
    """

    def __init__(self, demands=()) -> None:
        self.demands: list[NetworkDemand] = []
        for demand in demands:
            self.add(demand)

    def add(self, demand: NetworkDemand) -> NetworkDemand:
        if not isinstance(demand, NetworkDemand):
            raise ParameterError(
                f"expected NetworkDemand, got {type(demand).__name__}"
            )
        self.demands.append(demand)
        return demand

    def __len__(self) -> int:
        return len(self.demands)

    def __iter__(self):
        return iter(self.demands)

    def __getitem__(self, index: int) -> NetworkDemand:
        return self.demands[index]

    def __repr__(self) -> str:
        return f"DemandMatrix(n_demands={len(self)})"

    @property
    def duration(self) -> float:
        """The common capture duration shared by every demand."""
        durations = {float(d.workload.duration) for d in self.demands}
        if len(durations) != 1:
            raise ParameterError(
                "all demands must share one duration; got "
                f"{sorted(durations)} — use LinkWorkload.with_duration"
            )
        return durations.pop()

    def validate_endpoints(self, topology: Topology) -> None:
        """Every demand endpoint must be a router of the topology."""
        for demand in self.demands:
            topology.require_router(demand.source)
            topology.require_router(demand.sink)

    def with_tiled_addresses(self) -> "DemandMatrix":
        """A copy with each demand's destination block tiled by position.

        The engine applies this before simulating, however the matrix
        was built (spec file or direct API), so default-sized demand
        populations draw from disjoint destination blocks
        (:func:`demand_address_space` has the exceptions).  Demand 0
        keeps its declared address space untouched (tile offset zero).
        """
        return DemandMatrix(
            dataclasses.replace(
                demand,
                workload=dataclasses.replace(
                    demand.workload,
                    address_space=demand_address_space(
                        index, demand.workload.address_space
                    ),
                ),
            )
            for index, demand in enumerate(self.demands)
        )

    def total_rate_bps(self) -> float:
        return float(
            sum(d.workload.target_mean_rate_bps for d in self.demands)
        )
