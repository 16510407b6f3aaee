"""Shared-memory transport for large numpy arrays between processes.

The process backend moves ``PACKET_DTYPE`` chunks (and any other large
array) between the parent and its workers through POSIX shared memory
instead of pickling them over the pool's pipes.  Two kinds of segment
are used:

* **ring slots** — a fixed set of reusable segments created by the pool
  parent.  A free-slot index queue is inherited by the workers at fork
  time; whoever wants to ship an array pops a slot *without blocking*
  (``get_nowait``), copies the array in, and sends a tiny :class:`ShmRef`
  instead of the data.  The receiver copies the array out and pushes the
  slot index back.  Because nobody ever blocks on the queue there is no
  slot-exhaustion deadlock — exhaustion just falls through to:
* **one-shot segments** — created on demand for arrays that exceed the
  slot size or when the ring is momentarily empty.  The consumer unlinks
  the segment after copying out, so one-shots never outlive a single
  hand-off.

All segments carry a recognisable name prefix (:data:`SHM_PREFIX`) so
tests can assert nothing leaks into ``/dev/shm``.  The staging walker
only rewrites *bare ndarrays* found inside tuples / lists / dicts /
dataclasses; anything else rides the normal pickle path (fine — flow
tables and specs are small next to packet chunks).
"""

from __future__ import annotations

import dataclasses
import errno
import os
import queue
from multiprocessing import shared_memory

import numpy as np

from ..faults import consume_shm_fault
from .telemetry import record_degradation

__all__ = ["SHM_PREFIX", "ShmRef", "ShmTransport", "new_segment_name"]

#: Name prefix of every segment this module creates (leak tests scan
#: ``/dev/shm`` for it).
SHM_PREFIX = "repro_shm_"

#: Arrays smaller than this ride the pickle path; staging them would
#: cost more in slot traffic than the copy saves.
DEFAULT_THRESHOLD = 64 << 10

#: Default ring-slot payload capacity (fits a ~1.4M-packet
#: ``PACKET_DTYPE`` chunk).  Pages are only backed once written.
DEFAULT_SLOT_BYTES = 32 << 20


def new_segment_name() -> str:
    """A fresh, collision-safe segment name carrying :data:`SHM_PREFIX`."""
    return f"{SHM_PREFIX}{os.getpid():x}_{os.urandom(6).hex()}"


@dataclasses.dataclass(frozen=True)
class ShmRef:
    """Pickle-size stand-in for an ndarray parked in shared memory."""

    kind: str  # "slot" | "oneshot"
    name: str  # segment name (oneshot) or slot segment name
    slot: int  # ring index, -1 for one-shots
    dtype: np.dtype
    shape: tuple


class ShmTransport:
    """Stage/unstage arrays through a shared slot ring.

    One instance lives in the pool parent and one (over the same
    segments, attached by name after fork) in every worker.  The
    free-slot queue is a ``multiprocessing.Queue`` shared by all of
    them.
    """

    def __init__(self, free_slots, slots, threshold, slot_bytes):
        self._free = free_slots
        self._slots = list(slots)
        self._threshold = int(threshold)
        self._slot_bytes = int(slot_bytes)

    # -- staging -------------------------------------------------------

    def stage(self, obj):
        """Deep-copy ``obj`` replacing large ndarrays with ShmRefs."""
        if isinstance(obj, np.ndarray):
            if obj.nbytes >= self._threshold:
                return self._park(obj)
            return obj
        if isinstance(obj, tuple):
            return tuple(self.stage(o) for o in obj)
        if isinstance(obj, list):
            return [self.stage(o) for o in obj]
        if isinstance(obj, dict):
            return {k: self.stage(v) for k, v in obj.items()}
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return self._rebuild(obj, self.stage)
        return obj

    def unstage(self, obj):
        """Inverse of :meth:`stage`: materialise refs, recycle slots."""
        if isinstance(obj, ShmRef):
            return self._fetch(obj)
        if isinstance(obj, tuple):
            return tuple(self.unstage(o) for o in obj)
        if isinstance(obj, list):
            return [self.unstage(o) for o in obj]
        if isinstance(obj, dict):
            return {k: self.unstage(v) for k, v in obj.items()}
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return self._rebuild(obj, self.unstage)
        return obj

    def discard(self, obj):
        """Release every segment referenced by a staged object without
        materialising the arrays (error-path cleanup)."""
        if isinstance(obj, ShmRef):
            if obj.kind == "slot":
                self._free.put(obj.slot)
            else:
                _unlink_if_exists(obj.name)
            return
        if isinstance(obj, (tuple, list)):
            for o in obj:
                self.discard(o)
        elif isinstance(obj, dict):
            for o in obj.values():
                self.discard(o)
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            for f in dataclasses.fields(obj):
                self.discard(getattr(obj, f.name))

    # -- internals -----------------------------------------------------

    @staticmethod
    def _rebuild(obj, visit):
        cls = type(obj)
        new = object.__new__(cls)
        changed = False
        for f in dataclasses.fields(obj):
            old = getattr(obj, f.name)
            val = visit(old)
            changed = changed or val is not old
            object.__setattr__(new, f.name, val)
        if not changed:
            return obj
        vars_ = getattr(obj, "__dict__", None)
        if vars_:
            for k, v in vars_.items():
                if not hasattr(new, k):
                    object.__setattr__(new, k, v)
        return new

    def _park(self, arr: np.ndarray) -> "ShmRef | np.ndarray":
        arr = np.ascontiguousarray(arr)
        if arr.nbytes <= self._slot_bytes:
            try:
                idx = self._free.get_nowait()
            except queue.Empty:
                idx = None
            if idx is not None:
                seg = self._slots[idx]
                self._write(seg, arr)
                return ShmRef("slot", seg.name, idx, arr.dtype, arr.shape)
        name = new_segment_name()
        try:
            if consume_shm_fault():
                raise OSError(
                    errno.ENOSPC, "No space left on device (injected)"
                )
            seg = shared_memory.SharedMemory(
                name=name, create=True, size=max(arr.nbytes, 1)
            )
        except OSError as exc:
            if exc.errno not in (errno.ENOSPC, errno.ENOMEM):
                raise
            # /dev/shm is full: degrade gracefully to the pickle path.
            record_degradation(
                "shm-exhausted",
                f"one-shot allocation of {arr.nbytes} bytes failed "
                f"({exc.strerror or 'out of shared memory'}); "
                "array sent via pickle instead",
            )
            return arr
        try:
            self._write(seg, arr)
        finally:
            seg.close()
        return ShmRef("oneshot", name, -1, arr.dtype, arr.shape)

    def _fetch(self, ref: ShmRef) -> np.ndarray:
        if ref.kind == "slot":
            seg = self._slots[ref.slot]
            out = self._read(seg, ref)
            self._free.put(ref.slot)
            return out
        seg = shared_memory.SharedMemory(name=ref.name)
        try:
            out = self._read(seg, ref)
        finally:
            seg.close()
        try:
            seg.unlink()
        except FileNotFoundError:
            pass
        return out

    @staticmethod
    def _write(seg, arr):
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
        view[...] = arr
        del view

    @staticmethod
    def _read(seg, ref):
        view = np.ndarray(ref.shape, dtype=ref.dtype, buffer=seg.buf)
        out = view.copy()
        del view
        return out


def _unlink_if_exists(name: str) -> None:
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    seg.close()
    try:
        seg.unlink()
    except FileNotFoundError:
        pass
