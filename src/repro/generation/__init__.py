"""Section VII-C: generation of backbone traffic from the model.

The scalable entry points are the engine-backed
:func:`generate_rate_series` / :func:`generate_packet_trace`; the
pre-engine per-flow loop survives as :func:`reference_rate_series`, the
bit-for-bit oracle the engine is validated against.
"""

from .engine import DEFAULT_ARRIVAL_CELL, GenerationEngine
from .fluid import generate_rate_series
from .packets import generate_packet_trace
from .reference import reference_rate_series

__all__ = [
    "DEFAULT_ARRIVAL_CELL",
    "GenerationEngine",
    "generate_rate_series",
    "generate_packet_trace",
    "reference_rate_series",
]
