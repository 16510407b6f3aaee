"""Streaming, sharded measurement engine (sections III and V at scale).

The generation engine (PR 1) made the *synthesis* half of the paper's
pipeline chunked, vectorized and parallel; this module does the same for
the *measurement* half.  A :class:`MeasurementEngine` digests a packet
trace — an in-memory array, a ``.rptr`` file, or any iterable of
time-ordered packet chunks — and produces the flow set and the
single-packet-filtered rate series in bounded memory:

* **Chunking** (``chunk`` packets): the trace is consumed block by block
  through :class:`~repro.measurement.streaming.StreamingMeasurement`,
  whose open-flow carry table preserves the exporter's 60 s idle-timeout
  semantics bit-for-bit across chunk boundaries.  Peak memory is bounded
  by the chunk size plus the active-flow population, not the trace.
* **Sharding** (``workers``): the packed flow-key space is partitioned
  into ``workers`` independent carry tables processed concurrently on
  one worker pool per measurement pass.  All accumulation is exact
  integer arithmetic in float64, so results are invariant to both
  ``chunk`` and ``workers``.

This is the library's one flow accountant:
:func:`~repro.flows.exporter.export_flows` is a flows-only call into
:meth:`MeasurementEngine.measure_trace`.  Its output is pinned, bit for
bit, to the frozen in-memory oracle
:func:`~repro.measurement.reference.reference_export_flows` (flows) and
``RateSeries.from_packets(packets[packet_map >= 0], delta)`` (series).

``measure_file`` is the out-of-core entry point: multi-GB captures are
measured straight off disk through
:meth:`~repro.trace.io.TraceReader.chunks` without ever materialising
the packet array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ParameterError
from ..execution import ExecutionSpec, RetryPolicy, make_pool, stage_timer
from ..flows.exporter import DEFAULT_TIMEOUT
from ..flows.records import FlowSet
from ..stats.timeseries import RateSeries
from ..trace.io import TraceReader
from ..trace.packet import PACKET_DTYPE, PacketTrace
from .streaming import StreamingMeasurement, process_shard, reject_non_finite

__all__ = [
    "DEFAULT_FILE_CHUNK",
    "MeasurementEngine",
    "MeasurementResult",
    "iter_packet_chunks",
]

#: Packets per block when reading a trace file with no explicit chunk.
DEFAULT_FILE_CHUNK = 1_000_000


def iter_packet_chunks(packets, chunk: int | None):
    """Yield consecutive views of at most ``chunk`` packets.

    The bridge from in-memory packet arrays (or :class:`PacketTrace`) to
    the chunked measurement path; ``chunk=None`` yields one block.
    """
    if isinstance(packets, PacketTrace):
        packets = packets.packets
    packets = np.asarray(packets)
    if packets.dtype != PACKET_DTYPE:
        raise ParameterError(
            f"expected PACKET_DTYPE packets, got dtype {packets.dtype}"
        )
    if chunk is None:
        yield packets
        return
    chunk = int(chunk)
    if chunk < 1:
        raise ParameterError(f"chunk must be >= 1 packet, got {chunk}")
    for i in range(0, packets.size, chunk):
        yield packets[i: i + chunk]


@dataclass(frozen=True)
class MeasurementResult:
    """Everything one streaming measurement pass produced."""

    flows: FlowSet
    series: RateSeries | None
    duration: float
    packet_count: int
    link_capacity: float | None = None
    total_bytes: float = 0.0
    #: Pre-discard rate series (``keep_raw_series=True``): what a router
    #: watching the raw link rate sees — the anomaly detector's input.
    raw_series: RateSeries | None = None

    def statistics(self):
        """The paper's three-parameter summary over the measured interval."""
        return self.flows.statistics(self.duration)

    @property
    def mean_rate_bps(self) -> float:
        """Average link throughput (all packets, pre-discard) in bits/s."""
        if self.duration == 0.0:
            return 0.0
        return 8.0 * self.total_bytes / self.duration

    @property
    def utilization(self) -> float:
        """Mean rate over capacity (0.0 when the capacity is unknown)."""
        if not self.link_capacity:
            return 0.0
        return self.mean_rate_bps / self.link_capacity


class MeasurementEngine:
    """Scalable measurement for packet traces (see module docs).

    ``chunk`` (packets per processing block; ``None`` measures the whole
    trace as one chunk), ``workers`` (key-space shards on one pool that
    persists for the whole pass), ``backend`` and ``retry`` form the
    engine's :class:`~repro.execution.ExecutionSpec`, kept as
    ``execution``.  Results never depend on them.
    """

    def __init__(
        self,
        *,
        chunk: int | None = None,
        workers: int = 1,
        backend: str = "thread",
        retry: RetryPolicy | None = None,
    ) -> None:
        self.execution = ExecutionSpec(chunk, workers, backend, retry)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        c = self.execution
        return f"MeasurementEngine(chunk={c.chunk}, workers={c.workers})"

    # -- entry points -----------------------------------------------------

    def measure_chunks(
        self,
        chunks,
        *,
        duration: float | None = None,
        delta: float | None = None,
        key: str = "five_tuple",
        timeout: float = DEFAULT_TIMEOUT,
        min_packets: int = 2,
        prefix_length: int = 24,
        link_capacity: float | None = None,
        keep_raw_series: bool = False,
    ) -> MeasurementResult:
        """Measure an iterable of time-ordered packet chunks.

        The most general entry point: anything yielding ``PACKET_DTYPE``
        blocks in time order works — :meth:`TraceReader.chunks`,
        :func:`iter_packet_chunks`, or the synthesis engine's
        :class:`~repro.synthesis.StreamingSynthesis` (via
        :meth:`~repro.netsim.workloads.LinkWorkload.synthesize_chunks`),
        which is how a scenario synthesizes → measures without ever
        materialising the trace.  With ``delta`` set, the
        single-packet-filtered rate series is accumulated in the same
        pass; ``keep_raw_series=True`` additionally accumulates the
        pre-discard series (the anomaly detector's input).

        ``duration`` and ``link_capacity`` default to the chunk source's
        own attributes when it carries them (a ``StreamingSynthesis``
        does, mirroring how :meth:`measure_file` reads the trace
        header), so utilisation comes out right without re-plumbing
        workload metadata by hand.
        """
        if duration is None:
            duration = getattr(chunks, "duration", None)
            if duration is None:
                raise ParameterError(
                    "measure_chunks needs a duration: pass duration=... "
                    "(the chunk source carries none)"
                )
        if link_capacity is None:
            link_capacity = getattr(chunks, "link_capacity", None)
        c = self.execution
        streamer = StreamingMeasurement(
            delta=delta,
            duration=duration,
            key=key,
            timeout=timeout,
            min_packets=min_packets,
            prefix_length=prefix_length,
            shards=c.workers,
            keep_raw_series=keep_raw_series,
        )
        # a malformed chunk mid-stream must not strand shard workers
        with make_pool(c.backend, c.workers, retry=c.retry) as pool:
            for block in chunks:
                with stage_timer("measurement.shards"):
                    results = pool.map_ordered(
                        process_shard, streamer.shard_tasks(block)
                    )
                streamer.apply_shards(results)
        flows, series = streamer.finalize()
        return MeasurementResult(
            flows=flows,
            series=series,
            duration=float(duration),
            packet_count=streamer.packet_count,
            link_capacity=link_capacity,
            total_bytes=streamer.total_bytes,
            raw_series=streamer.raw_series,
        )

    def measure_trace(
        self,
        trace,
        *,
        delta: float | None = None,
        duration: float | None = None,
        **flow_kwargs,
    ) -> MeasurementResult:
        """Measure an in-memory :class:`PacketTrace` (or packet array).

        Chunking is simulated by slicing ``execution.chunk``-packet views,
        so the result is pinned to the streaming code path while the
        input stays wherever it already lives.  An unsorted trace is
        time-sorted (stably) before it is cut into chunks, so the result
        is independent of ``chunk`` even for invalid-capture inputs —
        the ``measurement`` spec section stays pure execution strategy.
        """
        link_capacity = None
        if isinstance(trace, PacketTrace):
            if duration is None:
                duration = trace.duration
            link_capacity = trace.link_capacity
            trace = trace.packets
        if duration is None:
            raise ParameterError(
                "measuring a bare packet array needs an explicit duration"
            )
        packets = np.asarray(trace)
        if packets.dtype != PACKET_DTYPE:
            raise ParameterError(
                f"expected PACKET_DTYPE packets, got dtype {packets.dtype}"
            )
        timestamps = packets["timestamp"]
        if not bool(np.all(timestamps[1:] >= timestamps[:-1])):
            # name a NaN by its input position, before sorting moves it
            reject_non_finite(timestamps)
            packets = packets[np.argsort(timestamps, kind="stable")]
        return self.measure_chunks(
            iter_packet_chunks(packets, self.execution.chunk),
            duration=duration,
            delta=delta,
            link_capacity=link_capacity,
            **flow_kwargs,
        )

    def measure_file(
        self,
        path,
        *,
        delta: float | None = None,
        duration: float | None = None,
        **flow_kwargs,
    ) -> MeasurementResult:
        """Measure a ``.rptr`` trace file out-of-core.

        Packets stream through :meth:`TraceReader.chunks`; only
        ``execution.chunk`` packets (default :data:`DEFAULT_FILE_CHUNK`)
        plus the open-flow carry tables are ever in memory.
        """
        reader = TraceReader(path)
        if duration is None:
            duration = reader.duration
        return self.measure_chunks(
            reader.chunks(self.execution.chunk or DEFAULT_FILE_CHUNK),
            duration=duration,
            delta=delta,
            link_capacity=reader.link_capacity,
            **flow_kwargs,
        )
