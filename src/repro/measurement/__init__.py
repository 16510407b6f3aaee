"""Streaming, sharded measurement engine — the section III/V pipeline at scale.

The measurement mirror of :mod:`repro.generation`: where the generation
engine streams synthetic traffic *out* in bounded memory, the
:class:`MeasurementEngine` streams captures *in* — chunked flow
accounting with an open-flow carry table, key-space sharding over a
worker pool, and single-pass filtered rate measurement — while staying
bit-for-bit equal to the frozen in-memory oracle
(``reference_export_flows`` + ``RateSeries.from_packets`` over the kept
packets) for any ``chunk`` and ``workers``.  It is the only flow
accountant: ``repro.flows.export_flows`` calls it.

Quickstart::

    from repro.measurement import MeasurementEngine

    engine = MeasurementEngine(chunk=1_000_000, workers=4)
    result = engine.measure_file("capture.rptr", delta=0.2, timeout=60.0)
    print(result.flows, result.series.coefficient_of_variation)
"""

from .engine import (
    DEFAULT_FILE_CHUNK,
    MeasurementEngine,
    MeasurementResult,
    iter_packet_chunks,
)
from .reference import reference_export_flows, reference_ewma_replay
from .streaming import StreamingMeasurement

__all__ = [
    "DEFAULT_FILE_CHUNK",
    "MeasurementEngine",
    "MeasurementResult",
    "StreamingMeasurement",
    "iter_packet_chunks",
    "reference_export_flows",
    "reference_ewma_replay",
]
