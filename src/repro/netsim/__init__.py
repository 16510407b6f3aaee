"""Synthetic backbone workload substrate (the Sprint-trace stand-in).

Generates packet-level traces of uncongested backbone links: Poisson (or
MMPP / session-clustered) flow arrivals, heavy-tailed sizes, TCP-like or
CBR transmission dynamics, Zipf destination prefixes, full packetization.
"""

from .addresses import WELL_KNOWN_PORTS, AddressSpace
from .arrivals import (
    ArrivalProcess,
    DiurnalArrivals,
    MMPPArrivals,
    NonHomogeneousPoissonArrivals,
    PoissonArrivals,
    SessionArrivals,
)
from .link import LinkSynthesis
from .packetize import packetize_shots
from .sizes import BoundedPareto, Constant, Empirical, Exponential, LogNormal, Mixture
from .tcp import PacketSchedule, TcpParameters, simulate_tcp_flows
from .workloads import (
    DEFAULT_SCALE,
    OC12_BPS,
    TABLE_I_ROWS,
    LinkWorkload,
    TableIRow,
    default_size_distribution,
    low_utilization_link,
    medium_utilization_link,
    table_i_workload,
    table_i_workloads,
)

__all__ = [
    "AddressSpace",
    "WELL_KNOWN_PORTS",
    "ArrivalProcess",
    "PoissonArrivals",
    "DiurnalArrivals",
    "MMPPArrivals",
    "NonHomogeneousPoissonArrivals",
    "SessionArrivals",
    "BoundedPareto",
    "LogNormal",
    "Exponential",
    "Constant",
    "Mixture",
    "Empirical",
    "TcpParameters",
    "PacketSchedule",
    "simulate_tcp_flows",
    "packetize_shots",
    "LinkSynthesis",
    "OC12_BPS",
    "DEFAULT_SCALE",
    "TableIRow",
    "TABLE_I_ROWS",
    "LinkWorkload",
    "default_size_distribution",
    "table_i_workload",
    "table_i_workloads",
    "low_utilization_link",
    "medium_utilization_link",
]
