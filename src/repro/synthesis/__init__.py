"""Streaming, time-sharded trace synthesis — the synthesis-side engine.

The third engine of the pipeline, mirroring :mod:`repro.generation`
(PR 1) and :mod:`repro.measurement` (PR 3): the arrival timeline is cut
into seed-owning cells, cells are synthesized independently over a
worker pool, and per-cell packet blocks are k-way-merged into globally
time-ordered ``PACKET_DTYPE`` chunks in bounded memory, bit for bit the
same for any ``chunk`` and ``workers``.
:meth:`SynthesisEngine.synthesize` materialises one link's
:class:`~repro.netsim.link.LinkSynthesis`;
:meth:`SynthesisEngine.synthesize_chunks` streams it.  The pre-engine
whole-trace path survives as :func:`reference_synthesize_link_trace`.

Quickstart::

    from repro.netsim import table_i_workload
    from repro.measurement import MeasurementEngine

    workload = table_i_workload(2, scale=1.0, duration=120.0)
    stream = workload.synthesize_chunks(seed=7, chunk=1_000_000, workers=4)
    result = MeasurementEngine(workers=4).measure_chunks(
        stream, duration=workload.duration, delta=0.2, timeout=60.0
    )
"""

from .cells import (
    CellBlock,
    CellPlan,
    default_warmup,
    synthesize_cell,
    unpack_payload,
)
from .engine import (
    DEFAULT_SYNTHESIS_CELL,
    StreamingSynthesis,
    SynthesisEngine,
)
from .reference import reference_synthesize_link_trace

__all__ = [
    "DEFAULT_SYNTHESIS_CELL",
    "CellBlock",
    "CellPlan",
    "StreamingSynthesis",
    "SynthesisEngine",
    "default_warmup",
    "synthesize_cell",
    "unpack_payload",
    "reference_synthesize_link_trace",
]
