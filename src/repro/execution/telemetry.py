"""Run telemetry: stage seconds, retries and degradations, per run.

:func:`stage_timer`, :func:`record_retry` and :func:`record_degradation`
write to the current :class:`RunTrace`, a :mod:`contextvars` scope that
:func:`run_trace` opens per run, so every run reports only its own
events; a closed trace folds into its parent, up to the process root.
Thread pools run each task in a copy of the caller's context; forked
workers start from a :func:`fresh_root` and ship their degradations
back with each result (:func:`take_worker_events`).
"""

from __future__ import annotations

import contextvars
import dataclasses
import threading
import time
from contextlib import contextmanager


@dataclasses.dataclass(frozen=True)
class HealthEvent:
    """One named recovery or degradation."""

    kind: str  # e.g. "worker-lost", "shm-exhausted", "backend-downgrade"
    detail: str  # human-readable cause, named loudly

    def to_dict(self) -> dict:
        return {"kind": self.kind, "detail": self.detail}


@dataclasses.dataclass(frozen=True)
class RunHealth:
    """Snapshot of every retry and degradation of one trace."""

    retries: tuple
    degradations: tuple

    @property
    def clean(self) -> bool:
        return not self.retries and not self.degradations

    def to_dict(self) -> dict:
        return {
            "retries": [e.to_dict() for e in self.retries],
            "degradations": [e.to_dict() for e in self.degradations],
            "n_retries": len(self.retries),
            "n_degradations": len(self.degradations),
        }


class RunTrace:
    """One run's stage seconds and health events.  The lock guards the
    read-modify-write paths; appends, copies and clears are atomic."""

    def __init__(self) -> None:
        self.stages: dict[str, float] = {}
        self.retries: list[HealthEvent] = []
        self.degradations: list[HealthEvent] = []
        self.lock = threading.Lock()

    def fold(self, child: RunTrace) -> None:
        """Add a closed child trace's seconds and events to this one."""
        with child.lock, self.lock:
            for name, seconds in child.stages.items():
                self.stages[name] = self.stages.get(name, 0.0) + seconds
            self.retries.extend(child.retries)
            self.degradations.extend(child.degradations)


_ROOT = RunTrace()
_CURRENT = contextvars.ContextVar("repro_run_trace", default=None)


def _current() -> RunTrace:
    return _CURRENT.get() or _ROOT


def fresh_root() -> None:
    """Start over from an empty root with no run open (forked workers)."""
    global _ROOT
    _ROOT = RunTrace()
    _CURRENT.set(None)


@contextmanager
def run_trace():
    """Scope the block or decorated call to a trace folded into its parent."""
    parent, trace = _current(), RunTrace()
    token = _CURRENT.set(trace)
    try:
        yield trace
    finally:
        _CURRENT.reset(token)
        parent.fold(trace)


@contextmanager
def stage_timer(name: str):
    """Accumulate the wall time of the enclosed block under ``name``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - t0
        trace = _current()
        with trace.lock:
            trace.stages[name] = trace.stages.get(name, 0.0) + elapsed


def record_retry(kind: str, detail: str) -> None:
    """Record one re-execution of lost work (watchdog fired)."""
    _current().retries.append(HealthEvent(str(kind), str(detail)))


def record_degradation(kind: str, detail: str) -> None:
    """Record one graceful downgrade (transport or backend)."""
    _current().degradations.append(HealthEvent(str(kind), str(detail)))


def run_health() -> RunHealth:
    """A frozen snapshot of the current trace's events."""
    return RunHealth(tuple(_current().retries), tuple(_current().degradations))


def stage_timings() -> dict[str, float]:
    """A snapshot of the current trace's seconds per stage label."""
    return dict(_current().stages)


def reset_run_health() -> None:
    """Drop the current trace's events (benchmarks call this up front)."""
    _current().retries.clear()
    _current().degradations.clear()


def reset_stage_timings() -> None:
    """Zero the current trace's stage seconds."""
    _current().stages.clear()


def take_worker_events() -> list:
    """Drain the current degradations as picklable tuples (pool workers)."""
    trace = _current()
    with trace.lock:
        events, trace.degradations = trace.degradations, []
    return [(e.kind, e.detail) for e in events]
