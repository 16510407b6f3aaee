"""repro.interop — real operator telemetry in and out of the model.

Readers stream NetFlow v5/cflowd and IPFIX flow archives and pcap
captures into bounded-memory chunks; writers export any
:class:`~repro.flows.records.FlowSet` or packet-chunk stream back out
in the same formats; the adapter layer re-applies the paper's
idle-timeout flow semantics through ``MeasurementEngine.measure_chunks``
so a multi-GB archive fits the model out-of-core.

Typical use::

    from repro.interop import open_import_stream
    from repro.measurement import MeasurementEngine

    stream = open_import_stream("router.nf5", format="auto")
    result = MeasurementEngine().measure_chunks(stream, delta=0.2)
"""

from .adapter import (
    IMPORT_FORMATS,
    FlowPacketStream,
    PacketChunkStream,
    ScanInfo,
    detect_format,
    expand_flow_records,
    open_import_stream,
    scan_record_chunks,
)
from .ipfix import IpfixReader, IpfixWriter, write_ipfix
from .netflow5 import NetFlow5Reader, NetFlow5Writer, write_netflow5
from .pcap import PcapReader, PcapWriter, write_pcap
from .records import (
    FLOW_RECORD_DTYPE,
    flow_records_from_flowset,
)

__all__ = [
    "FLOW_RECORD_DTYPE",
    "IMPORT_FORMATS",
    "FlowPacketStream",
    "IpfixReader",
    "IpfixWriter",
    "NetFlow5Reader",
    "NetFlow5Writer",
    "PacketChunkStream",
    "PcapReader",
    "PcapWriter",
    "ScanInfo",
    "detect_format",
    "expand_flow_records",
    "flow_records_from_flowset",
    "open_import_stream",
    "scan_record_chunks",
    "write_ipfix",
    "write_netflow5",
    "write_pcap",
]
