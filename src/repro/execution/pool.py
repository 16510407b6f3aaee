"""One pool abstraction behind every engine's ``workers`` knob.

Three interchangeable backends::

    serial   inline execution, no pool at all (the bitwise ground truth)
    thread   a lazy persistent ThreadPoolExecutor (the legacy behaviour)
    process  a fork-based multiprocessing.Pool whose large arrays travel
             through shared-memory ring buffers (see :mod:`.shm`)

All three expose the same tiny surface — ``map_ordered(fn, items)``,
``close()``, context management, ``.backend`` / ``.workers`` — and
every engine runs its independent tasks through one :func:`make_pool`
call, so results stay bit-for-bit identical across backends (every
engine's chunk/worker invariance contract extends to the backend axis).

Pools cost nothing until used: threads start, and the process backend
forks its workers and shared-memory ring, on the first ``map_ordered``
of two or more items, sized to ``min(workers, len(items))``.  A caller
therefore builds one pool up front and maps through it unconditionally.

The process backend requires ``fn`` and the items to be picklable
(module-level functions, plain data).  Two guards keep it safe to
request anywhere:

* ``workers <= 1`` or a single item run inline, so a one-core host
  never pays fork overhead;
* inside a daemonic pool worker (which may not spawn children —
  e.g. sweep cells running a network engine) ``process`` silently
  downgrades to ``thread``.

Fault tolerance: pass a :class:`RetryPolicy` to :func:`make_pool` (or
set ``execution.retry`` in a spec) and the process backend arms a
watchdog — each result is awaited under a per-task deadline, and a
missed deadline (worker crashed, fork wedged, task hung) respawns the
pool and deterministically re-executes every not-yet-delivered task.
Because all tasks are ``SeedSequence``-seeded the re-run is
bitwise-identical; the recovery is recorded in the run's
:mod:`~repro.execution.telemetry` rather than hidden.  Deterministic
task exceptions are *not* retried — they would fail identically — and
propagate immediately.
"""

from __future__ import annotations

import contextvars
import dataclasses
import multiprocessing
import os
import signal
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import shared_memory

from ..exceptions import ParameterError, WorkerFailure
from ..faults import active_plan, fire_task_fault
from .shm import (
    DEFAULT_SLOT_BYTES,
    DEFAULT_THRESHOLD,
    ShmTransport,
    new_segment_name,
)
from .telemetry import (
    fresh_root,
    record_degradation,
    record_retry,
    take_worker_events,
)

__all__ = [
    "BACKENDS",
    "ExecutionSpec",
    "RetryPolicy",
    "SerialPool",
    "ThreadPool",
    "SharedMemoryPool",
    "make_pool",
    "check_backend",
    "process_backend_available",
]

#: Accepted values of every ``backend`` knob, CLI flag and spec field.
BACKENDS = ("serial", "thread", "process")


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Watchdog + retry knobs for the process backend.

    ``timeout_s`` is the per-task delivery deadline; a result that does
    not arrive in time means the worker crashed or hung, and the pool
    respawns and re-executes the lost work (up to ``max_retries``
    times, sleeping ``backoff * attempt`` seconds between rounds).
    Serial and thread backends ignore the policy: they cannot lose
    work to a dead process, and a hung thread cannot be killed.
    """

    max_retries: int = 2
    timeout_s: float = 300.0
    backoff: float = 0.0

    def __post_init__(self):
        if int(self.max_retries) < 0:
            raise ParameterError(
                f"retry.max_retries must be >= 0, got {self.max_retries!r}"
            )
        if float(self.timeout_s) <= 0:
            raise ParameterError(
                f"retry.timeout_s must be > 0, got {self.timeout_s!r}"
            )
        if float(self.backoff) < 0:
            raise ParameterError(
                f"retry.backoff must be >= 0, got {self.backoff!r}"
            )


def check_backend(name: str, value) -> str:
    if value not in BACKENDS:
        raise ParameterError(
            f"{name} must be one of {BACKENDS}, got {value!r}"
        )
    return str(value)


@dataclasses.dataclass(frozen=True)
class ExecutionSpec:
    """How an engine executes — never *what* it computes.

    The one type, and the one check, for execution strategy: every
    engine (synthesis, measurement, network; generation for
    ``workers``/``backend``) and every spec section's ``execution``
    field hold one.  ``chunk`` is packets per streamed block (``None``
    = the caller's in-memory/default path), ``workers`` the tasks run
    concurrently on the engine's pool, ``backend`` the pool flavour
    (``"serial"``, ``"thread"`` or ``"process"``; the process backend
    moves packet chunks through shared-memory ring buffers, see
    :mod:`repro.execution.shm`).  ``retry`` arms the process backend's
    watchdog (see :class:`RetryPolicy`); ``None`` disables retries.
    Every engine is chunk/worker/backend invariant, so none of the four
    ever changes a result, only memory footprint, wall-clock and
    whether lost work is re-run.
    """

    chunk: int | None = None
    workers: int = 1
    backend: str = "thread"
    retry: RetryPolicy | None = None

    def __post_init__(self) -> None:
        chunk, workers = self.chunk, self.workers
        if chunk is not None:
            if int(chunk) != chunk or int(chunk) < 1:
                raise ParameterError(
                    "execution.chunk must be an integer >= 1 packet, "
                    f"got {chunk!r}"
                )
            object.__setattr__(self, "chunk", int(chunk))
        if int(workers) != workers or int(workers) < 1:
            raise ParameterError(
                f"execution.workers must be an integer >= 1, got {workers!r}"
            )
        object.__setattr__(self, "workers", int(workers))
        object.__setattr__(
            self, "backend", check_backend("execution.backend", self.backend)
        )
        if isinstance(self.retry, dict):
            object.__setattr__(self, "retry", RetryPolicy(**self.retry))
        elif self.retry is not None and not isinstance(
            self.retry, RetryPolicy
        ):
            raise ParameterError(
                "execution.retry must be a RetryPolicy (or a JSON "
                f"object), got {type(self.retry).__name__}"
            )

    @property
    def uses_engine(self) -> bool:
        """True when either knob engages the streaming/parallel path."""
        return self.chunk is not None or self.workers > 1


def process_backend_available() -> bool:
    """True when a fork-based process pool may be created here."""
    if multiprocessing.current_process().daemon:
        return False
    return "fork" in multiprocessing.get_all_start_methods()


class SerialPool:
    """Inline execution; defines the semantics the others must match."""

    backend = "serial"
    workers = 1

    def map_ordered(self, fn, items):
        return [fn(item) for item in items]

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class ThreadPool:
    """Persistent lazily-started thread pool (the legacy backend)."""

    backend = "thread"

    def __init__(self, workers: int):
        self.workers = max(1, int(workers))
        self._executor: ThreadPoolExecutor | None = None

    def map_ordered(self, fn, items):
        items = list(items)
        if len(items) <= 1 or self.workers <= 1:
            return [fn(item) for item in items]
        if self._executor is None:
            self._executor = ThreadPoolExecutor(max_workers=self.workers)
        # each task records into the caller's run, not the process root
        runs = [contextvars.copy_context().run for _ in items]
        tasks = self._executor.map(lambda run, x: run(fn, x), runs, items)
        return list(tasks)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


# -- process backend ---------------------------------------------------

# Worker-global transport, installed by the fork-inherited initializer.
_WORKER_TRANSPORT: ShmTransport | None = None

# Every live SharedMemoryPool, so the signal handlers can close them all
# (terminating workers and unlinking every /dev/shm segment) before an
# interrupt unwinds the process.
_LIVE_POOLS: "weakref.WeakSet[SharedMemoryPool]" = weakref.WeakSet()
_HANDLED_SIGNALS = (signal.SIGINT, signal.SIGTERM)
_SIGNALS_INSTALLED = False


def _close_live_pools() -> None:
    for pool in list(_LIVE_POOLS):
        try:
            pool.close()
        except Exception:
            pass


def _install_signal_handlers() -> None:
    """Chain SIGINT/SIGTERM through pool cleanup, once, best-effort.

    Only possible from the main thread of the main interpreter; pools
    created elsewhere simply rely on context-manager / ``__del__``
    cleanup.  The previous handler (or default behaviour) is preserved,
    so ``Ctrl-C`` still raises ``KeyboardInterrupt`` and ``SIGTERM``
    still terminates — just with zero segments left behind.
    """
    global _SIGNALS_INSTALLED
    if _SIGNALS_INSTALLED:
        return
    if threading.current_thread() is not threading.main_thread():
        return
    for sig in _HANDLED_SIGNALS:
        previous = signal.getsignal(sig)

        def _handler(signum, frame, _previous=previous):
            _close_live_pools()
            if callable(_previous):
                _previous(signum, frame)
            else:
                signal.signal(signum, signal.SIG_DFL)
                os.kill(os.getpid(), signum)

        try:
            signal.signal(sig, _handler)
        except (ValueError, OSError):
            return
    _SIGNALS_INSTALLED = True


def _worker_init(free_slots, slot_names, threshold, slot_bytes):
    """Attach the ring; drop the parent's pool-cleanup and telemetry.

    A forked worker inherits the parent's chained SIGTERM/SIGINT
    handler and its live-pool set; left in place, a terminated worker
    would close its copy of the parent's pool (killing its siblings and
    unlinking the parent's segments) instead of simply exiting.  It
    also inherits the parent's run traces, whose events would ride back
    with its first result and be counted twice.
    """
    global _WORKER_TRANSPORT
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    _LIVE_POOLS.clear()
    fresh_root()
    slots = [shared_memory.SharedMemory(name=n) for n in slot_names]
    _WORKER_TRANSPORT = ShmTransport(free_slots, slots, threshold, slot_bytes)


def _worker_run(payload):
    """Unstage inputs, run, stage outputs.

    Inputs are unstaged (and their slots recycled / one-shots unlinked)
    *before* ``fn`` runs, so a failing task never strands a segment.
    Worker-side health events (e.g. a shm allocation falling back to
    pickle) ride back with the result so the parent can re-record them.
    """
    fn, staged, index, attempt, plan = payload
    item = _WORKER_TRANSPORT.unstage(staged)
    if plan is not None:
        fire_task_fault(index, attempt, plan)
    result = fn(item)
    return _WORKER_TRANSPORT.stage(result), take_worker_events()


class SharedMemoryPool:
    """Fork-based process pool with zero-pickle array hand-off.

    Nothing is forked at construction: the first ``map_ordered`` of two
    or more items narrows ``workers`` to ``min(workers, len(items))``
    and starts the workers.  The parent then owns ``2 * workers + 2``
    reusable shared-memory ring slots; the free-slot queue and the
    attached segments are inherited by the workers at fork time
    (``multiprocessing.Pool`` passes initargs through the ``Process``
    constructor, so the queue is never pickled).  ``map_ordered``
    stages each item, streams results
    back through an ordered ``imap`` and unstages them promptly, which
    keeps slots cycling; when the ring is momentarily dry either side
    falls back to a one-shot segment, so progress never blocks on the
    ring.

    With a :class:`RetryPolicy`, each result is awaited under
    ``timeout_s``; a missed deadline tears the whole pool down (workers,
    ring, free queue), rebuilds it fresh and re-dispatches every task
    whose result had not yet been delivered.  Ordered delivery makes
    the unfinished set exactly the suffix of the task list, so the
    recovered run is a plain re-execution — bitwise-identical because
    every task is seeded.
    """

    backend = "process"

    def __init__(
        self,
        workers: int,
        *,
        slots: int | None = None,
        slot_bytes: int = DEFAULT_SLOT_BYTES,
        threshold: int = DEFAULT_THRESHOLD,
        retry: RetryPolicy | None = None,
    ):
        self.workers = max(1, int(workers))
        self.retry = retry
        self._slots = slots
        self._slot_bytes = int(slot_bytes)
        self._threshold = int(threshold)
        self._closed = False
        self._pool = None  # forked by the first map of >= 2 items
        self._segments: list = []

    def _spawn(self) -> None:
        ctx = multiprocessing.get_context("fork")
        n_slots = (
            int(self._slots) if self._slots is not None
            else 2 * self.workers + 2
        )
        self._segments = [
            shared_memory.SharedMemory(
                name=new_segment_name(), create=True, size=self._slot_bytes
            )
            for _ in range(n_slots)
        ]
        self._free = ctx.Queue()
        for i in range(n_slots):
            self._free.put(i)
        self._transport = ShmTransport(
            self._free, self._segments, self._threshold, self._slot_bytes
        )
        self._pool = ctx.Pool(
            self.workers,
            initializer=_worker_init,
            initargs=(
                self._free,
                [seg.name for seg in self._segments],
                self._threshold,
                self._slot_bytes,
            ),
        )

    def _teardown(self) -> None:
        try:
            if self._pool is not None:
                self._pool.terminate()
                self._pool.join()
        finally:
            self._pool = None
            for seg in self._segments:
                try:
                    seg.close()
                    seg.unlink()
                except FileNotFoundError:
                    pass
            self._segments = []

    def map_ordered(self, fn, items):
        if self._closed:
            raise ParameterError("pool is closed")
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        if self._pool is None:
            self.workers = min(self.workers, len(items))
            self._spawn()
            _LIVE_POOLS.add(self)
            _install_signal_handlers()
        policy = self.retry
        timeout = float(policy.timeout_s) if policy is not None else None
        retries_left = int(policy.max_retries) if policy is not None else 0
        n = len(items)
        out: list = [None] * n
        start = 0  # first task whose result has not been delivered
        attempt = 0
        # Resolve the fault plan here, in the parent: workers may have
        # been forked while a (since-cleared) plan was armed, so the
        # plan travels with each payload instead of via fork state.
        plan = active_plan()
        while True:
            payloads = [
                (fn, self._transport.stage(items[i]), i, attempt, plan)
                for i in range(start, n)
            ]
            it = self._pool.imap(_worker_run, payloads, chunksize=1)
            i = start
            try:
                while i < n:
                    staged, events = it.next(timeout)
                    for kind, detail in events:
                        record_degradation(kind, detail)
                    out[i] = self._transport.unstage(staged)
                    i += 1
            except multiprocessing.TimeoutError:
                detail = (
                    f"task {i}/{n} missed its {timeout:g}s deadline "
                    f"(worker crashed or hung) on attempt {attempt}"
                )
                for payload in payloads[i - start:]:
                    try:
                        self._transport.discard(payload[1])
                    except Exception:
                        pass
                if retries_left <= 0:
                    # the next map forks a fresh pool
                    self._teardown()
                    raise WorkerFailure(
                        f"{detail}; retries exhausted "
                        f"(max_retries={policy.max_retries})"
                    ) from None
                retries_left -= 1
                attempt += 1
                record_retry(
                    "worker-lost",
                    f"{detail}; respawned pool, re-executing tasks "
                    f"{i}..{n - 1}",
                )
                self._teardown()
                if policy.backoff:
                    time.sleep(float(policy.backoff) * attempt)
                self._spawn()
                start = i
                continue
            except BaseException:
                self._drain_after_error(it)
                raise
            return out

    def _drain_after_error(self, it) -> None:
        """Consume whatever the workers still deliver after a failure so
        their staged results do not strand segments."""
        if self._closed:
            return
        while True:
            try:
                staged = it.next(timeout=60)
            except StopIteration:
                return
            except multiprocessing.TimeoutError:
                return
            except Exception:
                continue
            try:
                self._transport.discard(staged)
            except Exception:
                pass

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._teardown()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass


def make_pool(
    backend: str = "thread",
    workers: int = 1,
    *,
    retry: RetryPolicy | None = None,
    **kwargs,
):
    """Build the pool implementing ``backend`` with ``workers`` lanes.

    ``workers <= 1`` and ``backend="serial"`` return the inline pool,
    and no backend starts a thread or process before its first map;
    ``backend="process"`` downgrades to threads wherever a fork-based
    pool cannot be created, so requesting it is always safe.  The
    routine downgrade inside a daemonic pool worker (nested engines)
    stays silent — it is by design — while a platform with no ``fork``
    start method records a structured ``backend-downgrade`` degradation
    in :mod:`~repro.execution.telemetry`.

    ``retry`` arms the process backend's watchdog; the serial and
    thread backends accept and ignore it (they cannot lose work to a
    dead process).
    """
    check_backend("backend", backend)
    if workers <= 1 or backend == "serial":
        return SerialPool()
    if backend == "process":
        if not process_backend_available():
            if not multiprocessing.current_process().daemon:
                record_degradation(
                    "backend-downgrade",
                    "process backend unavailable (no fork start method); "
                    f"running {workers} workers on the thread backend",
                )
            return ThreadPool(workers)
        return SharedMemoryPool(workers, retry=retry, **kwargs)
    return ThreadPool(workers)
