"""Streaming, time-sharded synthesis engine — paper-scale traces end to end.

The synthesis-side twin of :class:`repro.generation.GenerationEngine`
(PR 1, traffic *generation*) and :class:`repro.measurement.MeasurementEngine`
(PR 3, trace *measurement*): where the legacy
:func:`~repro.synthesis.reference.reference_synthesize_link_trace`
materialises the whole capture in one process before a global argsort,
the :class:`SynthesisEngine` partitions the arrival timeline into fixed
cells with per-cell ``SeedSequence`` children
(:mod:`repro.synthesis.cells`), synthesizes cells independently — over a
thread pool when ``workers > 1`` — and k-way-merges the per-cell packet
blocks into globally time-ordered ``PACKET_DTYPE`` chunks:

* **Chunking** (``chunk`` packets): :meth:`SynthesisEngine.synthesize_chunks`
  returns a :class:`StreamingSynthesis` iterator yielding consecutive
  time-sorted blocks of at most ``chunk`` packets.  Peak memory is
  bounded by the active-flow population plus one emission window, never
  the trace: a cell's packets are dropped as soon as the merge has
  emitted past them.
* **Sharding** (``workers``): cells are independent given their seed
  child, so groups of ``workers`` cells run concurrently on one worker
  pool per stream (:func:`repro.execution.make_pool`).
* **Determinism**: the output depends only on ``(seed, cell)`` and the
  workload — never on ``chunk`` or ``workers``.  The canonical packet
  order is: per-cell blocks sorted by timestamp, merged by one *stable*
  sort keyed on timestamp with ties broken by cell index, then within-
  cell position; every emission is a contiguous prefix of that global
  order, so concatenating the chunks of any configuration reproduces
  :func:`repro.netsim.link.synthesize_link_trace` bit for bit.

The carry rule mirrors the ``warmup`` semantics of the whole-trace path:
flows are synthesized in full by their arrival cell (their packet
schedule is a pure function of the cell's draws) and carried by the
merge until the stream has advanced past their last packet, so split
flows cross cell boundaries exactly as they cross the capture's warm-up
boundary.

Arrival processes advertise per-cell sampling via
:attr:`~repro.netsim.arrivals.ArrivalProcess.cellable` (Poisson,
non-homogeneous/diurnal and session arrivals are cellable).  A
non-cellable process (e.g. the sequential-state MMPP) is pre-sampled
once from a reserved seed child and served to cells as time slices —
still deterministic and chunk/worker-invariant, at O(total flows)
arrival memory (flow metadata only; packets still stream).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..exceptions import ParameterError
from ..execution import check_backend, make_pool, stage_timer
from ..netsim.link import LinkSynthesis
from ..trace.io import TraceWriter
from ..trace.packet import PacketTrace, packets_from_columns
from .cells import (
    DEFAULT_SYNTHESIS_CELL,
    CellBlock,
    CellPlan,
    default_warmup,
    synthesize_cell,
    unpack_payload,
)

__all__ = [
    "DEFAULT_SYNTHESIS_CELL",
    "SynthesisConfig",
    "SynthesisEngine",
    "StreamingSynthesis",
]


@dataclass(frozen=True)
class SynthesisConfig:
    """Knobs of the synthesis engine.

    Parameters
    ----------
    chunk:
        Packets per emitted block; ``None`` yields one block per merge
        emission (the natural cell-group granularity).  Output content
        never depends on it.
    workers:
        Cells synthesized concurrently on the worker pool.  Output never
        depends on it.
    backend:
        Pool flavour: ``"serial"``, ``"thread"`` (default) or
        ``"process"`` (fork-based shared-memory pool, see
        :mod:`repro.execution`).  Output never depends on it.
    cell:
        Arrival-cell width in seconds — the seeding contract knob (see
        :data:`DEFAULT_SYNTHESIS_CELL`).  Changing it changes the trace.
    """

    chunk: int | None = None
    workers: int = 1
    backend: str = "thread"
    cell: float = DEFAULT_SYNTHESIS_CELL
    retry: object | None = None  # RetryPolicy; process-backend watchdog

    def __post_init__(self) -> None:
        if self.chunk is not None:
            chunk = int(self.chunk)
            if chunk != self.chunk or chunk < 1:
                raise ParameterError(
                    f"synthesis chunk must be an integer >= 1 packet, "
                    f"got {self.chunk!r}"
                )
            object.__setattr__(self, "chunk", chunk)
        workers = int(self.workers)
        if workers != self.workers or workers < 1:
            raise ParameterError(
                f"workers must be an integer >= 1, got {self.workers!r}"
            )
        object.__setattr__(self, "workers", workers)
        check_backend("backend", self.backend)
        if not np.isfinite(self.cell) or self.cell <= 0.0:
            raise ParameterError(
                f"cell must be finite and > 0 seconds, got {self.cell!r}"
            )


def _synthesize_cell_task(task):
    """Picklable cell-synthesis adapter for the pool's single-arg map."""
    return synthesize_cell(*task)


def _as_seed_sequence(seed) -> np.random.SeedSequence:
    """Normalise ``seed`` to the engine's root ``SeedSequence``."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        return seed.bit_generator.seed_seq
    return np.random.SeedSequence(seed)


class _PendingBlock:
    """A synthesized cell whose packets are not fully emitted yet."""

    __slots__ = ("timestamps", "payload_hi", "payload_lo", "offset")

    def __init__(self, block: CellBlock) -> None:
        self.timestamps = block.timestamps
        self.payload_hi = block.payload_hi
        self.payload_lo = block.payload_lo
        self.offset = 0

    def take_before(self, t_end: float):
        """Slice off (and consume) this block's packets before ``t_end``."""
        cut = (
            self.timestamps.size
            if t_end == np.inf
            else int(np.searchsorted(self.timestamps, t_end, side="left"))
        )
        if cut <= self.offset:
            return None
        part = (
            self.timestamps[self.offset: cut],
            self.payload_hi[self.offset: cut],
            self.payload_lo[self.offset: cut],
        )
        self.offset = cut
        return part

    @property
    def exhausted(self) -> bool:
        return self.offset >= self.timestamps.size


class StreamingSynthesis:
    """Single-use iterator of globally time-ordered ``PACKET_DTYPE`` chunks.

    Obtained from :meth:`SynthesisEngine.synthesize_chunks`.  Exposes the
    trace metadata a consumer needs before the stream is drained
    (``duration``, ``link_capacity``, ``name``) and live counters that
    are complete once iteration ends (``packet_count``, ``total_bytes``,
    ``total_flows``).  With ``keep_ground_truth=True`` the per-flow
    ground truth arrays are accumulated and available from
    :meth:`ground_truth` after the stream is drained.

    Raises :class:`~repro.exceptions.ParameterError` at the end of
    iteration if the whole workload produced zero flows (empty *cells*
    are legal; an empty *workload* mirrors the whole-trace path's error).
    """

    def __init__(
        self,
        plan: CellPlan,
        config: SynthesisConfig,
        seed=None,
        *,
        keep_ground_truth: bool = False,
    ) -> None:
        self.plan = plan
        self.config = config
        self.keep_ground_truth = keep_ground_truth
        # one pool for the whole stream; it forks on the first cell group
        self._pool = make_pool(
            config.backend, config.workers, retry=config.retry
        )
        root = _as_seed_sequence(seed)
        children = root.spawn(plan.n_cells + 1)
        self._presample_seed = children[0]
        self._cell_seeds = children[1:]
        self.packet_count = 0
        self.total_bytes = 0.0
        self.total_flows = 0
        self._truth: list[tuple] = []
        self._iterator = None

    # -- metadata ---------------------------------------------------------

    @property
    def duration(self) -> float:
        return self.plan.duration

    @property
    def link_capacity(self) -> float:
        return self.plan.link_capacity

    @property
    def name(self) -> str:
        return self.plan.name

    def ground_truth(self):
        """``(flow_starts, flow_sizes, flow_protocols)`` in cell order.

        Only populated when the stream was created with
        ``keep_ground_truth=True`` and has been fully drained.
        """
        if not self.keep_ground_truth:
            raise ParameterError(
                "this stream was created with keep_ground_truth=False; "
                "ground truth was not accumulated"
            )
        if not self._truth:
            return np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.uint8)
        starts, sizes, protocols = zip(*self._truth)
        return (
            np.concatenate(starts),
            np.concatenate(sizes),
            np.concatenate(protocols),
        )

    # -- worker pool ------------------------------------------------------

    def _run_cells(self, tasks):
        with stage_timer("synthesis.cells"):
            return self._pool.map_ordered(_synthesize_cell_task, tasks)

    def close(self) -> None:
        """Release the worker pool (idempotent; exhaustion calls it)."""
        self._pool.close()

    def write_trace(self, path) -> int:
        """Drain this stream straight into a ``.rptr`` file.

        Only one emission window (plus the active-cell carry) is ever in
        memory.  A zero-flow workload raises
        :class:`~repro.exceptions.ParameterError` and removes the
        partial file, like the in-memory path which raises before
        producing any output.  Returns the number of packets written.
        """
        try:
            with TraceWriter(
                path,
                link_capacity=self.link_capacity,
                duration=self.duration,
            ) as writer:
                for block in self:
                    writer.write(block)
        except ParameterError:
            from pathlib import Path

            Path(path).unlink(missing_ok=True)
            raise
        return self.packet_count

    # -- iteration --------------------------------------------------------

    def __iter__(self):
        if self._iterator is None:
            self._iterator = self._chunks()
        return self._iterator

    def __next__(self):
        return next(iter(self))

    def _presampled_times(self):
        """Whole-horizon arrival times for non-cellable processes."""
        rng = np.random.default_rng(self._presample_seed)
        times = np.asarray(
            self.plan.arrivals.times(self.plan.horizon, rng), dtype=np.float64
        )
        return np.sort(times)

    def _emissions(self):
        """Yield ``(timestamps, hi, lo)`` column emissions in time order."""
        plan = self.plan
        presampled = None
        if not plan.arrivals.cellable:
            presampled = self._presampled_times()
        pending: list[_PendingBlock] = []
        group = self.config.workers
        try:
            for g0 in range(0, plan.n_cells, group):
                g1 = min(g0 + group, plan.n_cells)
                tasks = []
                for k in range(g0, g1):
                    times = None
                    if presampled is not None:
                        t0, t1 = plan.cell_bounds(k)
                        lo = np.searchsorted(presampled, t0, side="left")
                        hi = np.searchsorted(presampled, t1, side="left")
                        times = presampled[lo:hi]
                    tasks.append((plan, k, self._cell_seeds[k], times))
                for block in self._run_cells(tasks):
                    if block is None:
                        continue
                    self.total_flows += block.n_flows
                    if self.keep_ground_truth:
                        self._truth.append(
                            (block.flow_starts, block.flow_sizes,
                             block.flow_protocols)
                        )
                    if block.n_packets:
                        pending.append(_PendingBlock(block))
                safe = plan.cell_floor(g1)
                with stage_timer("synthesis.merge"):
                    parts = []
                    for blk in pending:
                        part = blk.take_before(safe)
                        if part is not None:
                            parts.append(part)
                    pending = [blk for blk in pending if not blk.exhausted]
                    if not parts:
                        continue
                    if len(parts) == 1:
                        merged = parts[0]
                    else:
                        ts = np.concatenate([p[0] for p in parts])
                        hi = np.concatenate([p[1] for p in parts])
                        lo = np.concatenate([p[2] for p in parts])
                        # stable sort over sorted runs: timsort merges
                        # them and breaks timestamp ties by cell order —
                        # the canonical global order for any emission
                        # boundaries
                        order = np.argsort(ts, kind="stable")
                        merged = ts[order], hi[order], lo[order]
                # the yield sits outside the timed block so consumer
                # time is not booked against the merge stage
                yield merged
            if self.total_flows == 0:
                raise ParameterError(
                    "arrival process produced zero flows; increase rate "
                    "or duration"
                )
        finally:
            self.close()

    def _chunks(self):
        """Assemble emissions into PACKET_DTYPE blocks of ``chunk``."""
        chunk = self.config.chunk
        held: list[np.ndarray] = []
        held_count = 0
        for ts, hi, lo in self._emissions():
            packets = packets_from_columns(ts, *unpack_payload(hi, lo))
            if chunk is None:
                self.packet_count += packets.size
                self.total_bytes += float(packets["size"].sum(dtype=np.int64))
                yield packets
                continue
            held.append(packets)
            held_count += packets.size
            while held_count >= chunk:
                out, held, held_count = _take_exactly(held, held_count, chunk)
                self.packet_count += out.size
                self.total_bytes += float(out["size"].sum(dtype=np.int64))
                yield out
        if chunk is not None and held_count:
            out = held[0] if len(held) == 1 else np.concatenate(held)
            self.packet_count += out.size
            self.total_bytes += float(out["size"].sum(dtype=np.int64))
            yield out


def _take_exactly(held, held_count, chunk):
    """Split the held block list into one exact-``chunk`` array + rest."""
    out_parts, need = [], chunk
    rest: list[np.ndarray] = []
    for part in held:
        if need == 0:
            rest.append(part)
        elif part.size <= need:
            out_parts.append(part)
            need -= part.size
        else:
            out_parts.append(part[:need])
            rest.append(part[need:])
            need = 0
    out = out_parts[0] if len(out_parts) == 1 else np.concatenate(out_parts)
    return out, rest, held_count - chunk


class SynthesisEngine:
    """Scalable backbone-link trace synthesis (see module docs)."""

    def __init__(
        self,
        config: SynthesisConfig | None = None,
        *,
        chunk: int | None = None,
        workers: int | None = None,
        backend: str | None = None,
        cell: float | None = None,
    ) -> None:
        if config is None:
            config = SynthesisConfig()
        overrides = {
            k: v
            for k, v in {
                "chunk": chunk, "workers": workers,
                "backend": backend, "cell": cell,
            }.items()
            if v is not None
        }
        if overrides:
            config = replace(config, **overrides)
        self.config = config

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        c = self.config
        return (
            f"SynthesisEngine(chunk={c.chunk}, workers={c.workers}, "
            f"cell={c.cell:g})"
        )

    # -- plan construction -------------------------------------------------

    def plan(
        self,
        *,
        arrivals,
        size_dist,
        duration: float,
        link_capacity: float,
        address_space=None,
        tcp_params=None,
        rtt_dist=None,
        cbr_rate_dist=None,
        warmup: float | None = None,
        name: str = "synthetic",
    ) -> CellPlan:
        """Build the cell plan for one link (defaults mirror the legacy
        whole-trace path: warm-up of half the capture, capped at 90 s)."""
        from ..netsim.addresses import AddressSpace
        from ..netsim.tcp import TcpParameters

        if address_space is None:
            address_space = AddressSpace()
        if tcp_params is None:
            tcp_params = TcpParameters()
        if warmup is None:
            warmup = default_warmup(duration)
        return CellPlan(
            arrivals=arrivals,
            size_dist=size_dist,
            duration=float(duration),
            warmup=max(float(warmup), 0.0),
            link_capacity=float(link_capacity),
            address_space=address_space,
            tcp_params=tcp_params,
            rtt_dist=rtt_dist,
            cbr_rate_dist=cbr_rate_dist,
            name=str(name),
            cell=self.config.cell,
        )

    # -- entry points ------------------------------------------------------

    def synthesize_chunks(
        self, seed=None, *, keep_ground_truth: bool = False, **plan_kwargs
    ) -> StreamingSynthesis:
        """Stream a synthesized capture as time-ordered packet chunks."""
        plan = self.plan(**plan_kwargs)
        return StreamingSynthesis(
            plan,
            self.config,
            seed,
            keep_ground_truth=keep_ground_truth,
        )

    def synthesize(self, seed=None, **plan_kwargs) -> LinkSynthesis:
        """Materialise a full :class:`~repro.netsim.link.LinkSynthesis`.

        Drains the engine's own stream, so the result is bit-for-bit the
        concatenation of :meth:`synthesize_chunks` for any ``chunk`` and
        ``workers`` — this *is* the canonical
        :func:`~repro.netsim.link.synthesize_link_trace` output.
        """
        stream = self.synthesize_chunks(
            seed, keep_ground_truth=True, **plan_kwargs
        )
        blocks = list(stream)
        packets = (
            blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        ) if blocks else packets_from_columns(*([[]] * 7))
        starts, sizes, protocols = stream.ground_truth()
        trace = PacketTrace(
            packets,
            link_capacity=stream.link_capacity,
            duration=stream.duration,
            name=stream.name,
        )
        return LinkSynthesis(
            trace=trace,
            flow_start_times=starts,
            flow_sizes=sizes,
            flow_protocols=protocols,
        )

    def write_trace(self, path, seed=None, **plan_kwargs) -> int:
        """Stream a synthesized capture straight to a ``.rptr`` file.

        See :meth:`StreamingSynthesis.write_trace`; returns the number
        of packets written.
        """
        stream = self.synthesize_chunks(seed, **plan_kwargs)
        return stream.write_trace(path)
