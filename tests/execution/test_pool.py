"""The pool abstraction behind every engine's ``workers`` knob.

The process-backend tests are the interesting ones: task payloads and
results travel through shared-memory ring slots, so beyond ordering and
error propagation every test asserts nothing leaks into ``/dev/shm``
(the segments all carry the recognisable ``repro_shm_`` prefix).
"""

from __future__ import annotations

import glob
import signal

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.execution import (
    BACKENDS,
    SerialPool,
    SharedMemoryPool,
    ThreadPool,
    check_backend,
    make_pool,
    process_backend_available,
)
from repro.trace.packet import PACKET_DTYPE


def _leaked_segments():
    return glob.glob("/dev/shm/repro_shm_*")


@pytest.fixture(autouse=True)
def no_segment_leaks():
    assert not _leaked_segments()
    yield
    assert not _leaked_segments()


# -- worker functions (module-level: the process backend pickles them) --


def _double(x):
    return 2 * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("injected failure")
    return -x


def _packet_checksum(arr):
    """Round-trip a PACKET_DTYPE chunk: echo it plus a scalar digest."""
    return arr, float(arr["size"].sum()), arr["timestamp"].copy()


def _nested_process_backend(_):
    """What does a process-backend request yield *inside* a worker?"""
    with make_pool("process", 2) as pool:
        return type(pool).__name__


class TestMakePool:
    def test_backends_tuple(self):
        assert BACKENDS == ("serial", "thread", "process")

    def test_check_backend_rejects_unknown(self):
        with pytest.raises(ParameterError, match="backend"):
            check_backend("backend", "forkserver")

    def test_serial(self):
        assert isinstance(make_pool("serial", 8), SerialPool)

    def test_single_worker_degrades_to_serial(self):
        for backend in BACKENDS:
            assert isinstance(make_pool(backend, 1), SerialPool)

    def test_thread(self):
        with make_pool("thread", 2) as pool:
            assert isinstance(pool, ThreadPool)
            assert pool.workers == 2

    def test_process(self):
        assert process_backend_available()
        with make_pool("process", 2) as pool:
            assert isinstance(pool, SharedMemoryPool)

    def test_process_downgrades_inside_daemonic_worker(self):
        # the network engine's per-link tasks build measurement engines
        # inside pool workers: a nested process request must not try to
        # fork from a daemonic process
        with make_pool("process", 2) as pool:
            kinds = pool.map_ordered(_nested_process_backend, [0, 1])
        assert kinds == ["ThreadPool", "ThreadPool"]


class TestMapOrdered:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_preserves_order(self, backend):
        with make_pool(backend, 3) as pool:
            assert pool.map_ordered(_double, list(range(20))) == [
                2 * i for i in range(20)
            ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_and_single(self, backend):
        with make_pool(backend, 3) as pool:
            assert pool.map_ordered(_double, []) == []
            assert pool.map_ordered(_double, [21]) == [42]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_worker_exception_propagates(self, backend):
        with make_pool(backend, 3) as pool:
            with pytest.raises(ValueError, match="injected failure"):
                pool.map_ordered(_fail_on_three, list(range(8)))

    def test_failure_leaves_no_segments_behind(self):
        # failure injection: large staged payloads in flight while one
        # task raises — close() (via the context manager) must still
        # return every ring slot and one-shot to the kernel
        arrays = [np.random.default_rng(i).random(40_000) for i in range(8)]
        with make_pool("process", 2) as pool:
            with pytest.raises(ValueError):
                pool.map_ordered(
                    _fail_on_three_arrays, list(enumerate(arrays))
                )
        assert not _leaked_segments()


def _fail_on_three_arrays(item):
    i, arr = item
    if i == 3:
        raise ValueError("injected failure")
    return arr * 2.0


class TestSharedMemoryTransport:
    def test_packet_dtype_roundtrip(self):
        rng = np.random.default_rng(0)
        n = 50_000  # ~1.1 MiB: well above the staging threshold
        chunk = np.zeros(n, dtype=PACKET_DTYPE)
        chunk["timestamp"] = np.sort(rng.random(n))
        chunk["src_addr"] = rng.integers(0, 2**32, n, dtype=np.uint32)
        chunk["dst_addr"] = rng.integers(0, 2**32, n, dtype=np.uint32)
        chunk["src_port"] = rng.integers(0, 2**16, n, dtype=np.uint16)
        chunk["dst_port"] = rng.integers(0, 2**16, n, dtype=np.uint16)
        chunk["protocol"] = 6
        chunk["size"] = rng.integers(40, 1500, n, dtype=np.uint16)
        halves = [chunk[: n // 2], chunk[n // 2:]]
        with make_pool("process", 2) as pool:
            out = pool.map_ordered(_packet_checksum, halves)
        for sent, (echoed, digest, stamps) in zip(halves, out):
            assert echoed.dtype == PACKET_DTYPE
            assert np.array_equal(echoed, sent)
            assert digest == float(sent["size"].sum())
            assert np.array_equal(stamps, sent["timestamp"])

    def test_oversize_arrays_use_oneshot_segments(self):
        # bigger than the configured slot, so every hand-off is a
        # one-shot segment — and they must all be unlinked afterwards
        arrays = [np.full(64_000, float(i)) for i in range(4)]
        with SharedMemoryPool(2, slot_bytes=1 << 16) as pool:
            out = pool.map_ordered(_double, arrays)
        for i, arr in enumerate(out):
            assert np.array_equal(arr, np.full(64_000, 2.0 * i))

    def test_ring_exhaustion_falls_through(self):
        # one slot for many in-flight chunks: stage() must fall back to
        # one-shots instead of blocking on the free queue
        arrays = [np.full(30_000, float(i)) for i in range(10)]
        with SharedMemoryPool(2, slots=1) as pool:
            out = pool.map_ordered(_double, arrays)
        for i, arr in enumerate(out):
            assert np.array_equal(arr, np.full(30_000, 2.0 * i))


class TestClose:
    def test_close_is_idempotent(self):
        for backend in BACKENDS:
            pool = make_pool(backend, 2)
            pool.close()
            pool.close()

    def test_process_pool_rejects_use_after_close(self):
        pool = make_pool("process", 2)
        pool.close()
        with pytest.raises(ParameterError, match="closed"):
            pool.map_ordered(_double, [1, 2])

    def test_close_releases_segments(self):
        pool = make_pool("process", 2)
        assert not _leaked_segments()  # nothing forked before first use
        pool.map_ordered(_double, [1, 2])
        assert _leaked_segments()  # ring exists while the pool is open
        pool.close()
        assert not _leaked_segments()


class TestLazyStart:
    def test_fork_waits_for_a_multi_item_map(self):
        with make_pool("process", 4) as pool:
            assert pool.map_ordered(_double, [5]) == [10]
            assert not _leaked_segments()  # one item runs inline
            pool.map_ordered(_double, [1, 2])
            # sized to the first fan-out, not the requested width
            assert pool.workers == 2

    def test_later_pools_workers_exit_on_sigterm(self):
        # the parent's chained cleanup handler must not survive the fork:
        # a worker running it would close its copy of the parent's pool
        # on terminate() instead of exiting
        for _ in range(2):
            with make_pool("process", 2) as pool:
                handlers = pool.map_ordered(_sigterm_handler, [0, 1])
        assert handlers == [signal.SIG_DFL] * 2


def _sigterm_handler(_):
    handler = signal.getsignal(signal.SIGTERM)
    if isinstance(handler, signal.Handlers):
        return handler
    return getattr(handler, "__qualname__", repr(handler))
