"""Flow accounting: packets -> flows (the NetFlow analogue, section III).

Rules reproduced from the paper's methodology:

* a flow is identified by a 5-tuple or by a /24 destination prefix;
* a flow *ends* when no packet is seen for ``timeout`` seconds (60 s);
* flow size is the byte sum, flow duration the time between the first and
  last packet;
* single-packet flows are discarded (their duration would be zero) and
  their packets are also excluded from rate measurement.

There is one implementation of these rules: the streaming
:class:`~repro.measurement.MeasurementEngine`.  :func:`export_flows` is
its in-memory, flows-only front door; callers that also need the
single-packet-filtered rate series call
:meth:`~repro.measurement.MeasurementEngine.measure_trace` with a
``delta`` and get both from one pass.  The engine is pinned bit for bit
to the frozen oracle
:func:`~repro.measurement.reference.reference_export_flows`.
"""

from __future__ import annotations

from ..exceptions import FlowExportError, ParameterError
from .records import FlowSet

__all__ = [
    "export_flows",
    "export_five_tuple_flows",
    "export_prefix_flows",
    "DEFAULT_TIMEOUT",
]

#: Idle timeout ending a flow, as in the paper (60 seconds).
DEFAULT_TIMEOUT = 60.0


def export_flows(
    packets,
    *,
    key: str = "five_tuple",
    timeout: float = DEFAULT_TIMEOUT,
    min_packets: int = 2,
    prefix_length: int = 24,
) -> FlowSet:
    """Run flow accounting over a packet array or :class:`PacketTrace`.

    Parameters
    ----------
    key:
        ``"five_tuple"`` (definition 1) or ``"prefix"`` (definition 2).
    timeout:
        Idle gap (seconds) after which the next packet of the same key
        starts a new flow.
    min_packets:
        Minimum packets for a flow to be kept; the paper uses 2 (discard
        single-packet flows).  Flows whose first and last packet share a
        timestamp are discarded too (zero duration).
    prefix_length:
        Prefix width for ``key="prefix"`` (the paper uses /24).

    Every input error — wrong dtype, bad key, ``timeout``,
    ``min_packets`` or ``prefix_length``, a non-finite timestamp — is a
    :class:`~repro.exceptions.FlowExportError`.
    """
    # the measurement engine builds on this module, so import it late
    from ..measurement.engine import MeasurementEngine

    try:
        return MeasurementEngine().measure_trace(
            packets,
            duration=0.0,  # flows do not depend on it; no series is binned
            key=key,
            timeout=timeout,
            min_packets=min_packets,
            prefix_length=prefix_length,
        ).flows
    except ParameterError as exc:
        raise FlowExportError(str(exc)) from None


def export_five_tuple_flows(packets, **kwargs) -> FlowSet:
    """Flow definition 1 of the paper: 5-tuple flows."""
    return export_flows(packets, key="five_tuple", **kwargs)


def export_prefix_flows(packets, *, prefix_length: int = 24, **kwargs) -> FlowSet:
    """Flow definition 2 of the paper: destination-prefix flows (/24)."""
    return export_flows(packets, key="prefix", prefix_length=prefix_length, **kwargs)
