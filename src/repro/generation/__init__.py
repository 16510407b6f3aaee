"""Section VII-C: generation of backbone traffic from the model.

:class:`GenerationEngine` is the one entry point:
:meth:`~GenerationEngine.rate_series` simulates the fluid rate path and
:meth:`~GenerationEngine.packet_trace` a full packet trace.  The
pre-engine per-flow loop survives as :func:`reference_rate_series`, the
bit-for-bit oracle the engine is validated against.
"""

from .engine import DEFAULT_ARRIVAL_CELL, GenerationEngine
from .reference import reference_rate_series

__all__ = [
    "DEFAULT_ARRIVAL_CELL",
    "GenerationEngine",
    "reference_rate_series",
]
