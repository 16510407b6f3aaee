"""The interop layer's common currency: columnar flow records.

Every flow archive format (NetFlow v5/cflowd datagrams, IPFIX messages)
decodes into chunks of :data:`FLOW_RECORD_DTYPE` — the five-tuple plus
the per-flow counters real exporters emit (packets, octets, first/last
timestamp) — and every writer encodes from the same dtype.  A
:class:`~repro.flows.records.FlowSet` converts losslessly in both
directions (:func:`flow_records_from_flowset`), so synthetic scenarios
can feed downstream collectors and operator archives can feed the
paper's model.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ParameterError, TraceFormatError
from ..flows.keys import FIVE_TUPLE_FIELDS, packed_key_order
from ..flows.records import FlowSet

__all__ = [
    "FLOW_RECORD_DTYPE",
    "SCAN_RECORD_DTYPE",
    "check_exportable",
    "flow_records_from_flowset",
    "start_order",
]

#: One exported flow record: decoded timestamps are float64 seconds on
#: the archive's own clock (rebasing to a 0-based capture clock is the
#: import stream's job, not the decoder's).
FLOW_RECORD_DTYPE = np.dtype(
    [
        ("start", "<f8"),
        ("end", "<f8"),
        ("src_addr", "<u4"),
        ("dst_addr", "<u4"),
        ("src_port", "<u2"),
        ("dst_port", "<u2"),
        ("protocol", "u1"),
        ("packets", "<i8"),
        ("octets", "<i8"),
    ]
)

#: The columns a clock-range scan reads (``scan_record_chunks``): a
#: reader's ``record_chunks(scan=True)`` converts only these.
SCAN_RECORD_DTYPE = np.dtype(
    [(name, FLOW_RECORD_DTYPE[name]) for name in ("start", "end", "packets", "octets")]
)

_SIGN = np.uint64(1 << 63)
_INF_BITS = np.uint64(0x7FF0000000000000)


def start_order(starts) -> np.ndarray:
    """``np.argsort(starts, kind="stable")``, computed on integer keys.

    Each float64's bits map to a uint64 whose unsigned order is the
    float order (positive: set the sign bit; negative: flip every bit),
    with ``-0.0`` keyed as ``+0.0`` and every NaN as the largest key, so
    ties, signed zeros, infinities and NaNs all land where the stable
    argsort puts them.  Only integer operations touch the values, so
    no NaN raises a floating-point warning.  The keys then go through the
    flow exporter's key order, :func:`~repro.flows.keys.packed_key_order`:
    one vectorised sort of each key's leading bits and its row index.
    """
    bits = np.asarray(starts, dtype=np.float64).view(np.uint64)
    key = np.where(bits & _SIGN, ~bits, bits | _SIGN)
    key[bits == _SIGN] = _SIGN  # -0.0 ties with +0.0
    key[(bits & ~_SIGN) > _INF_BITS] = np.iinfo(np.uint64).max  # NaN
    return packed_key_order(key)


def flow_records_from_flowset(flows: FlowSet) -> np.ndarray:
    """A :data:`FLOW_RECORD_DTYPE` array of the flow set, start-ordered.

    Only five-tuple flow sets export — NetFlow/IPFIX records *are*
    five-tuple records; a prefix-aggregated :class:`FlowSet` has no
    addresses/ports to put on the wire.
    """
    if flows.key_kind != "five_tuple":
        raise ParameterError(
            "only five_tuple flow sets export to NetFlow/IPFIX; got "
            f"key_kind={flows.key_kind!r} (prefix aggregation is a "
            "measurement-side view, not a wire format)"
        )
    order = start_order(flows.starts)
    # gather column by column straight into the record fields: indexing
    # the packed record dtype copies whole records field by field,
    # several times slower ("clip" lets np.take write to the strided
    # field without a buffer; ``order`` is a permutation, never clipped)
    records = np.empty(len(flows), dtype=FLOW_RECORD_DTYPE)
    for name, column in (
        ("start", flows.starts), ("end", flows.ends),
        *((field, flows.keys[field]) for field in FIVE_TUPLE_FIELDS),
        ("packets", flows.packet_counts),
        ("octets", flows.sizes.astype(np.int64)),
    ):
        np.take(column, order, out=records[name], mode="clip")
    return records


def check_exportable(records: np.ndarray, format_name: str) -> None:
    """Raise :class:`TraceFormatError` unless every record encodes as is.

    The archive writers call this before writing a byte: a record whose
    timestamps are not finite, that starts before 0 or ends before it
    starts, or that has a negative counter would come back corrupt or be
    rejected by the format's own reader.  Format-specific upper bounds
    are the writer's job.
    """
    if records.dtype != FLOW_RECORD_DTYPE:
        raise TraceFormatError(
            f"chunk dtype {records.dtype} != FLOW_RECORD_DTYPE"
        )
    if records.size == 0:
        return
    for field in ("start", "end"):
        finite = np.isfinite(records[field])
        if not bool(finite.all()):
            index = int(np.argmin(finite))
            raise TraceFormatError(
                f"{format_name} timestamps must be finite; record {index} "
                f"has {field} = {float(records[field][index])}"
            )
    if float(records["start"].min()) < 0.0:
        raise TraceFormatError(
            f"{format_name} timestamps are unsigned; cannot encode a flow "
            f"starting at {float(records['start'].min()):g}s — rebase the "
            "records to a 0-based capture clock first"
        )
    backwards = records["end"] < records["start"]
    if bool(backwards.any()):
        index = int(np.argmax(backwards))
        raise TraceFormatError(
            f"{format_name} cannot encode record {index}: it ends at "
            f"{float(records['end'][index]):g}s, before its start at "
            f"{float(records['start'][index]):g}s"
        )
    for field in ("packets", "octets"):
        if int(records[field].min()) < 0:
            raise TraceFormatError(
                f"{format_name} counters are unsigned; cannot encode "
                f"{field} = {int(records[field].min())}"
            )
