"""Execution backends: serial / thread / shared-memory process pools.

See :mod:`repro.execution.pool` for the abstraction every engine routes
through and :class:`ExecutionSpec`, the one type of the engines'
``chunk``/``workers``/``backend``/``retry`` knobs,
:mod:`repro.execution.shm` for the zero-pickle array transport
behind the ``process`` backend, and :mod:`repro.execution.telemetry`
for the run-scoped stage timings and retry/degradation accounting.
"""

from .pool import (
    BACKENDS,
    ExecutionSpec,
    RetryPolicy,
    SerialPool,
    SharedMemoryPool,
    ThreadPool,
    check_backend,
    make_pool,
    process_backend_available,
)
from .shm import SHM_PREFIX, ShmRef, ShmTransport
from .telemetry import (
    HealthEvent,
    RunHealth,
    record_degradation,
    record_retry,
    reset_run_health,
    reset_stage_timings,
    run_health,
    run_trace,
    stage_timer,
    stage_timings,
)

__all__ = [
    "BACKENDS",
    "SHM_PREFIX",
    "ExecutionSpec",
    "HealthEvent",
    "RetryPolicy",
    "RunHealth",
    "SerialPool",
    "SharedMemoryPool",
    "ShmRef",
    "ShmTransport",
    "ThreadPool",
    "check_backend",
    "make_pool",
    "process_backend_available",
    "record_degradation",
    "record_retry",
    "reset_run_health",
    "reset_stage_timings",
    "run_health",
    "run_trace",
    "stage_timer",
    "stage_timings",
]
