"""Deterministic fault injection for the execution resilience layer.

A :class:`FaultPlan` names exactly one failure to inject into a
process-backend run:

``worker-crash``
    the worker executing task ``task`` dies hard (``os._exit``) on its
    first attempt — exercises the watchdog + respawn + re-execute path.
``task-exception``
    task ``task`` raises :class:`~repro.exceptions.FaultInjectedError`
    on its first attempt — a *deterministic* failure, which must
    propagate loudly rather than burn retries.
``slow-task``
    task ``task`` sleeps ``seconds`` before computing on its first
    attempt — exercises the per-task deadline on a hung-but-alive
    worker.
``shm-exhaustion``
    the next ``count`` one-shot shared-memory allocations fail with
    ``ENOSPC`` — exercises the transport's pickle fallback.

Plans are installed either in-process via :func:`install` (the pool
dispatches the parent's plan alongside every task payload, so workers
always see the parent's current install/clear state) or through the
``REPRO_FAULTS`` environment variable holding the same fields as JSON,
e.g.::

    REPRO_FAULTS='{"kind": "worker-crash", "task": 3}'

Every fault fires **only on a task's first attempt** (``attempt == 0``),
so a retried task deterministically succeeds — which is exactly the
recovery contract the chaos battery pins: identical output, one named
retry in :class:`~repro.execution.RunHealth`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time

from .exceptions import FaultInjectedError, ParameterError

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "active_plan",
    "clear",
    "consume_shm_fault",
    "fire_task_fault",
    "install",
]

FAULT_KINDS = ("worker-crash", "task-exception", "slow-task", "shm-exhaustion")

#: Environment hook: a JSON object with the :class:`FaultPlan` fields.
FAULTS_ENV = "REPRO_FAULTS"


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """One seeded, reproducible failure to inject."""

    kind: str
    task: int = 0  # 0-based task index the fault targets
    count: int = 1  # shm-exhaustion: how many allocations fail
    seconds: float = 5.0  # slow-task: how long to hang

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ParameterError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if int(self.task) < 0:
            raise ParameterError("fault task index must be >= 0")
        if int(self.count) < 1:
            raise ParameterError("fault count must be >= 1")
        if float(self.seconds) < 0:
            raise ParameterError("fault seconds must be >= 0")


_PLAN: FaultPlan | None = None
_SHM_REMAINING: int | None = None


def install(plan: FaultPlan) -> None:
    """Arm ``plan`` in this process (pools dispatch it to workers)."""
    global _PLAN, _SHM_REMAINING
    _PLAN = plan
    _SHM_REMAINING = None


def clear() -> None:
    """Disarm any installed plan."""
    global _PLAN, _SHM_REMAINING
    _PLAN = None
    _SHM_REMAINING = None


def active_plan() -> FaultPlan | None:
    """The installed plan, else one parsed from ``REPRO_FAULTS``."""
    if _PLAN is not None:
        return _PLAN
    raw = os.environ.get(FAULTS_ENV, "")
    if not raw:
        return None
    try:
        data = json.loads(raw)
    except ValueError as exc:
        raise ParameterError(f"{FAULTS_ENV} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParameterError(f"{FAULTS_ENV} must be a JSON object")
    return FaultPlan(**data)


def fire_task_fault(
    index: int, attempt: int, plan: FaultPlan | None = None
) -> None:
    """Inject the armed task fault, if ``index`` is its target.

    Called by the pool worker just before running each task.  The pool
    dispatches the *parent's* active plan with every task payload, so
    :func:`install` / :func:`clear` in the parent are authoritative even
    for workers forked while a plan was armed; callers that pass no plan
    fall back to this process's own :func:`active_plan`.  Faults fire
    only on ``attempt == 0`` so recovery is deterministic.
    """
    if plan is None:
        plan = active_plan()
    if plan is None or attempt != 0 or index != int(plan.task):
        return
    if plan.kind == "worker-crash":
        os._exit(17)
    if plan.kind == "task-exception":
        raise FaultInjectedError(
            f"injected exception in task {index} (FaultPlan task-exception)"
        )
    if plan.kind == "slow-task":
        time.sleep(float(plan.seconds))


def consume_shm_fault() -> bool:
    """True when the next one-shot shm allocation should fail (ENOSPC).

    Decrements the armed plan's budget; an env-armed plan counts within
    each process separately (workers inherit the env, not the counter).
    """
    plan = active_plan()
    if plan is None or plan.kind != "shm-exhaustion":
        return False
    global _SHM_REMAINING
    if _SHM_REMAINING is None:
        _SHM_REMAINING = int(plan.count)
    if _SHM_REMAINING <= 0:
        return False
    _SHM_REMAINING -= 1
    return True
