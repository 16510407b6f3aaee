"""Durable checkpoint stores for the long-running fan-outs.

A :class:`CheckpointStore` owns one directory holding a ``manifest.json``
plus one ``<key>.ckpt`` entry per completed unit of work (a sweep cell,
a network link).  Writes are atomic (``write + fsync + os.replace``), so
a run killed mid-write never leaves a torn entry — a checkpoint either
exists completely or not at all.

The manifest pins a *fingerprint* of the run's identity.  Resuming into
a directory whose fingerprint does not match raises
:class:`~repro.exceptions.CheckpointError` instead of silently mixing
results from two different scenarios.  Execution knobs (``workers``,
``backend``, ``chunk``, ``retry``) are excluded from the fingerprint:
results are execution-invariant by contract, so a run interrupted at
``workers=8`` may resume at ``workers=2`` and still be bitwise-equal.

Entries are pickled: pickle round-trips every float bit-for-bit and
rebuilds the frozen result dataclasses directly, which is what makes a
resumed report *bitwise-equal* to an uninterrupted one.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path

from .exceptions import CheckpointError

__all__ = ["CheckpointStore", "map_in_batches", "run_fingerprint"]

MANIFEST_NAME = "manifest.json"
_VERSION = 1


def run_fingerprint(payload) -> str:
    """A stable hex digest of a JSON-able run-identity payload.

    ``execution`` sections are stripped recursively before hashing (see
    the module docstring), and dict ordering is normalised, so two
    specs that can only differ in wall-clock strategy fingerprint
    identically.
    """

    def strip(value):
        if isinstance(value, dict):
            return {
                k: strip(v)
                for k, v in sorted(value.items())
                if k != "execution"
            }
        if isinstance(value, (list, tuple)):
            return [strip(v) for v in value]
        return value

    blob = json.dumps(strip(payload), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class CheckpointStore:
    """One directory of atomically-written, manifest-pinned entries.

    ``resume=False`` (a fresh run) discards any entries already present
    for the *same* fingerprint and starts over; ``resume=True`` keeps
    them so the caller can skip completed work.  Either way a
    fingerprint mismatch fails loudly — a checkpoint directory never
    silently serves results from a different run.
    """

    def __init__(self, directory, fingerprint: str, *, resume: bool = False):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fingerprint = str(fingerprint)
        manifest_path = self.directory / MANIFEST_NAME
        if manifest_path.exists():
            try:
                manifest = json.loads(manifest_path.read_text())
            except ValueError as exc:
                raise CheckpointError(
                    f"unreadable checkpoint manifest {manifest_path}: {exc}"
                ) from None
            if manifest.get("fingerprint") != self.fingerprint:
                raise CheckpointError(
                    f"checkpoint directory {self.directory} belongs to a "
                    "different run (fingerprint mismatch); point "
                    "checkpoint_dir at a fresh directory"
                )
            if not resume:
                for entry in self.directory.glob("*.ckpt"):
                    entry.unlink()
        _atomic_write(
            manifest_path,
            json.dumps(
                {"version": _VERSION, "fingerprint": self.fingerprint},
                indent=2,
            ).encode("utf-8"),
        )

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.ckpt"

    def has(self, key: str) -> bool:
        return self._path(key).exists()

    def load(self, key: str):
        with open(self._path(key), "rb") as fh:
            return pickle.load(fh)

    def save(self, key: str, value) -> None:
        _atomic_write(
            self._path(key),
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def keys(self) -> list[str]:
        return sorted(p.stem for p in self.directory.glob("*.ckpt"))


def map_in_batches(pool, fn, tasks, store: CheckpointStore | None):
    """Yield ``(task, fn(task))`` in task order, mapped on ``pool``.

    Without a ``store`` every task goes in one fan-out.  With one, tasks
    go through in pool-width batches, and a batch's pairs are all
    yielded — for the caller to ``store.save`` — before the next batch
    starts, so an interrupted run loses at most one batch of work.
    """
    tasks = list(tasks)
    size = max(1, len(tasks) if store is None else pool.workers)
    for b0 in range(0, len(tasks), size):
        batch = tasks[b0:b0 + size]
        yield from zip(batch, pool.map_ordered(fn, batch))
