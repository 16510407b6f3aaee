"""Flow measurement substrate: classification, accounting, intervals.

Reproduces the paper's section III methodology (NetFlow-like accounting
with a 60 s idle timeout, two flow definitions, single-packet discard,
30-minute interval splitting).
"""

from .counts import CountSeries, active_flow_counts
from .exporter import (
    DEFAULT_TIMEOUT,
    export_five_tuple_flows,
    export_flows,
    export_prefix_flows,
)
from .routing import RoutingTable, export_routable_flows, routed_packets
from .intervals import (
    SplitExcess,
    boundary_split_excess,
    cumulative_arrival_curve,
    export_interval_flows,
    iter_intervals,
)
from .keys import (
    PROTO_TCP,
    PROTO_UDP,
    FiveTuple,
    PrefixKey,
    format_ipv4,
    parse_ipv4,
    prefix_of,
)
from .records import FlowRecord, FlowSet

# The calibration subsystem's mixture size law lives with the other
# synthesis-side size distributions; re-exported here because it is
# first and foremost a *flow-size* model (fit from measured flows).
from ..netsim.sizes import LognormalParetoMixture

__all__ = [
    "FlowRecord",
    "FlowSet",
    "LognormalParetoMixture",
    "FiveTuple",
    "PrefixKey",
    "format_ipv4",
    "parse_ipv4",
    "prefix_of",
    "PROTO_TCP",
    "PROTO_UDP",
    "DEFAULT_TIMEOUT",
    "export_flows",
    "export_five_tuple_flows",
    "export_prefix_flows",
    "iter_intervals",
    "export_interval_flows",
    "cumulative_arrival_curve",
    "boundary_split_excess",
    "SplitExcess",
    "RoutingTable",
    "export_routable_flows",
    "routed_packets",
    "CountSeries",
    "active_flow_counts",
]
