"""Workload presets mirroring the paper's Table I.

The paper evaluates on seven OC-12 (622 Mbps) Sprint backbone links with
average utilisations between 26 and 262 Mbps.  ``scale`` multiplies each
preset's rates while keeping the flow size distribution, which preserves
every dimensionless quantity the paper reports (utilisation ratios,
coefficients of variation, cluster structure, fitted shot powers);
EXPERIMENTS.md records the mapping experiment by experiment.

The default remains ``scale=1/32`` (a ~19 Mbps link) so interactive runs
and the test suite stay snappy, but full-rate presets are first-class:
``table_i_workload(row, scale=1.0)`` synthesizes a genuine OC-12 trace
(10^7-10^8 packets for the paper's 30-minute-to-hours intervals) through
the streaming synthesis engine — :meth:`LinkWorkload.synthesize_chunks`
produces time-ordered packet blocks in bounded memory, which feed the
streaming measurement engine or a :class:`~repro.trace.TraceWriter`
without the capture ever being materialised.

Each preset computes the flow arrival rate ``lambda`` needed to hit its
target mean rate from the size law's mean wire bytes per flow, so measured
utilisation lands on target without hand calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .._util import as_rng, check_positive
from ..exceptions import ParameterError
from ..execution import make_pool
from .addresses import AddressSpace
from .arrivals import ArrivalProcess, PoissonArrivals
from .link import LinkSynthesis
from .sizes import BoundedPareto, LogNormal, Mixture
from .tcp import TcpParameters

__all__ = [
    "OC12_BPS",
    "DEFAULT_SCALE",
    "TableIRow",
    "TABLE_I_ROWS",
    "LinkWorkload",
    "default_size_distribution",
    "table_i_workload",
    "table_i_workloads",
    "low_utilization_link",
    "medium_utilization_link",
    "high_utilization_link",
    "synthesize_scenario",
    "multi_link_rate_series",
]

#: An OC-12 link in bits/second (the paper's monitored links).
OC12_BPS = 622e6

#: Default rate scale: our synthetic "OC-12" runs at 622/32 ~= 19.4 Mbps.
DEFAULT_SCALE = 1.0 / 32.0


@dataclass(frozen=True)
class TableIRow:
    """One row of the paper's Table I (summary of OC-12 link traces)."""

    date: str
    length_hours: float
    avg_utilization_mbps: float


#: The seven traces of Table I.
TABLE_I_ROWS: tuple[TableIRow, ...] = (
    TableIRow("Nov 8th, 2001", 7.0, 243.0),
    TableIRow("Nov 8th, 2001", 10.0, 180.0),
    TableIRow("Nov 8th, 2001", 6.0, 262.0),
    TableIRow("Nov 8th, 2001", 39.5, 26.0),
    TableIRow("Sep 5th, 2001", 10.0, 136.0),
    TableIRow("Sep 5th, 2001", 7.0, 187.0),
    TableIRow("Sep 5th, 2001", 16.0, 72.0),
)


def default_size_distribution() -> Mixture:
    """Mice-and-elephants flow size law (bytes).

    85% bounded-Pareto body+tail (the heavy tail the self-similarity
    literature documents) plus 15% tiny transactional flows, most of which
    become single-packet flows and exercise the exporter's discard rule.
    """
    return Mixture(
        [
            (0.15, LogNormal(median=300.0, sigma=0.5)),
            (0.85, BoundedPareto(alpha=1.15, minimum=2000.0, maximum=5e5)),
        ]
    )


@dataclass
class LinkWorkload:
    """A reproducible synthetic backbone-link workload.

    ``arrival_rate`` is derived from ``target_mean_rate_bps`` and the mean
    wire bytes per flow of ``size_dist`` (estimated once by seeded Monte
    Carlo), so ``synthesize()`` hits the target utilisation.
    """

    name: str
    target_mean_rate_bps: float
    link_capacity_bps: float = OC12_BPS * DEFAULT_SCALE
    duration: float = 120.0
    size_dist: object = field(default_factory=default_size_distribution)
    address_space: AddressSpace = field(default_factory=AddressSpace)
    tcp_params: TcpParameters = field(default_factory=TcpParameters)
    rtt_dist: object = field(default_factory=lambda: LogNormal(2.0, 0.5))
    cbr_rate_dist: object = field(default_factory=lambda: LogNormal(20e3, 0.5))
    arrivals: ArrivalProcess | None = None  # default: Poisson at arrival_rate

    def __post_init__(self) -> None:
        check_positive("target_mean_rate_bps", self.target_mean_rate_bps)
        check_positive("link_capacity_bps", self.link_capacity_bps)
        check_positive("duration", self.duration)
        if self.target_mean_rate_bps > self.link_capacity_bps:
            raise ParameterError(
                "target rate exceeds link capacity; the paper's links stay "
                "below 50% utilisation"
            )

    @property
    def mean_wire_bytes_per_flow(self) -> float:
        """``E[S + header * ceil(S/mss)]`` by seeded Monte Carlo."""
        rng = as_rng(12345)
        sizes = np.asarray(
            self.size_dist.rvs(size=50_000, random_state=rng), dtype=np.float64
        )
        sizes = np.maximum(sizes, 40.0)
        packets = np.maximum(np.ceil(sizes / self.tcp_params.mss), 1.0)
        return float(np.mean(sizes + self.tcp_params.header_bytes * packets))

    @property
    def arrival_rate(self) -> float:
        """Flow arrival rate (flows/s) implied by the target mean rate."""
        bytes_per_second = self.target_mean_rate_bps / 8.0
        return bytes_per_second / self.mean_wire_bytes_per_flow

    @property
    def target_utilization(self) -> float:
        return self.target_mean_rate_bps / self.link_capacity_bps

    def with_duration(self, duration: float) -> "LinkWorkload":
        return replace(self, duration=duration)

    def model_ensemble(self):
        """Flow (size, duration) law for model-driven generation.

        Pairs the workload's size distribution with its access-rate law
        (``D = S / r``), the analytically convenient
        :class:`~repro.core.SizeRateEnsemble` of section V — this is the
        ensemble the generation engine feeds from when the workload is
        generated by the shot-noise model rather than the TCP simulator.
        """
        from ..core.ensemble import SizeRateEnsemble

        return SizeRateEnsemble(self.size_dist, self.cbr_rate_dist)

    def _synthesis_kwargs(self) -> dict:
        return dict(
            arrivals=self.arrivals or PoissonArrivals(self.arrival_rate),
            size_dist=self.size_dist,
            duration=self.duration,
            link_capacity=self.link_capacity_bps,
            address_space=self.address_space,
            tcp_params=self.tcp_params,
            rtt_dist=self.rtt_dist,
            cbr_rate_dist=self.cbr_rate_dist,
            name=self.name,
        )

    def synthesize(self, seed=None, *, engine=None) -> LinkSynthesis:
        """Generate a packet trace for this workload.

        ``engine`` optionally supplies a configured
        :class:`~repro.synthesis.SynthesisEngine`; the default engine is
        equivalent for any ``chunk``/``workers`` (bit-for-bit, pinned by
        ``tests/synthesis/``).
        """
        from ..synthesis.engine import SynthesisEngine

        engine = engine or SynthesisEngine()
        return engine.synthesize(seed, **self._synthesis_kwargs())

    def synthesize_chunks(
        self,
        seed=None,
        *,
        chunk: int = 1_000_000,
        workers: int = 1,
        backend: str = "thread",
        engine=None,
    ):
        """Stream this workload as time-ordered packet blocks of ``chunk``.

        A true bounded-memory producer (a
        :class:`~repro.synthesis.StreamingSynthesis`): cells of the
        arrival timeline are synthesized on ``workers`` threads and
        merged into consecutive ``PACKET_DTYPE`` blocks ready for the
        streaming measurement engine
        (:meth:`repro.measurement.MeasurementEngine.measure_chunks`) or a
        :class:`~repro.trace.TraceWriter` — the same shape a chunked
        :class:`~repro.trace.TraceReader` yields, so measurement code is
        agnostic to whether its input was captured or synthesized.  Peak
        memory is bounded by the active-flow population plus one merge
        window, never the trace, and the concatenated blocks equal
        :meth:`synthesize` bit for bit for any ``chunk``/``workers``.
        """
        from ..synthesis.engine import SynthesisEngine

        engine = engine or SynthesisEngine(
            chunk=chunk, workers=workers, backend=backend
        )
        return engine.synthesize_chunks(seed, **self._synthesis_kwargs())


def table_i_workload(
    row: int | TableIRow,
    *,
    scale: float = DEFAULT_SCALE,
    duration: float = 120.0,
) -> LinkWorkload:
    """Scaled workload for one Table I trace.

    ``row`` is an index into :data:`TABLE_I_ROWS` or a row object.  Rates
    are multiplied by ``scale``; trace length is replaced by ``duration``
    seconds (the paper's hours-long captures are summarised per 30-minute
    interval; our intervals are ``duration``-long).

    ``scale=1.0`` gives the full-rate OC-12 link of the paper: with
    ``duration=1800.0`` (one 30-minute analysis interval) that is a
    10^7-10^8-packet synthesis, which streams end-to-end in bounded
    memory through :meth:`LinkWorkload.synthesize_chunks` and the
    measurement engine — materialising it via :meth:`LinkWorkload.synthesize`
    also works but holds the whole packet array (~23 bytes/packet).
    """
    if isinstance(row, (int, np.integer)):
        row = TABLE_I_ROWS[int(row)]
    check_positive("scale", scale)
    return LinkWorkload(
        name=f"{row.date} ({row.avg_utilization_mbps:g} Mbps)",
        target_mean_rate_bps=row.avg_utilization_mbps * 1e6 * scale,
        link_capacity_bps=OC12_BPS * scale,
        duration=duration,
    )


def table_i_workloads(
    *, scale: float = DEFAULT_SCALE, duration: float = 120.0
) -> list[LinkWorkload]:
    """All seven Table I workloads, scaled."""
    return [
        table_i_workload(row, scale=scale, duration=duration)
        for row in TABLE_I_ROWS
    ]


def low_utilization_link(
    *, duration: float = 120.0, scale: float = DEFAULT_SCALE
) -> LinkWorkload:
    """The 26 Mbps-class link: highest traffic variability (~30% CoV).

    Pass ``scale=1.0`` for the full-rate link (see :func:`table_i_workload`).
    """
    return table_i_workload(3, scale=scale, duration=duration)


def medium_utilization_link(
    *, duration: float = 120.0, scale: float = DEFAULT_SCALE
) -> LinkWorkload:
    """A 136 Mbps-class link: the middle CoV cluster of Figures 9-13."""
    return table_i_workload(4, scale=scale, duration=duration)


def high_utilization_link(
    *, duration: float = 120.0, scale: float = DEFAULT_SCALE
) -> LinkWorkload:
    """A 262 Mbps-class link: smooth traffic (bottom-left cluster)."""
    return table_i_workload(2, scale=scale, duration=duration)


# -- multi-link scenarios (engine-parallel) ------------------------------


def synthesize_scenario(
    workloads,
    *,
    seed: int = 0,
    workers: int = 1,
) -> list[LinkSynthesis]:
    """Synthesize many independent links in parallel.

    Each link draws from its own ``SeedSequence`` child keyed by position,
    so the result list is deterministic for a given ``seed`` regardless of
    ``workers`` — the engine's multi-seed fan-out applied to the TCP-level
    synthesiser.  This is how whole Table I campaigns (seven links, many
    seeds) are produced in one call.
    """
    workloads = list(workloads)
    if not workloads:
        raise ParameterError("workloads must not be empty")
    children = np.random.SeedSequence(seed).spawn(len(workloads))

    def run(task):
        workload, child = task
        return workload.synthesize(seed=as_rng(child))

    with make_pool("thread", workers) as pool:
        return pool.map_ordered(run, list(zip(workloads, children)))


def multi_link_rate_series(
    workloads,
    shot,
    *,
    delta: float = 0.2,
    seed: int = 0,
    chunk: float | None = None,
    workers: int = 1,
):
    """Model-driven rate paths for many links, generated by the engine.

    For each workload, feeds its implied arrival rate and
    :meth:`LinkWorkload.model_ensemble` flow law through
    :meth:`~repro.generation.engine.GenerationEngine.rate_series` with a
    per-link ``SeedSequence`` child.  Returns one
    :class:`~repro.stats.timeseries.RateSeries` of byte rates per link,
    in workload order, deterministic for a given ``seed`` regardless of
    ``workers`` or ``chunk``.
    """
    from ..generation.engine import GenerationEngine

    workloads = list(workloads)
    if not workloads:
        raise ParameterError("workloads must not be empty")
    # parallelism lives at the link level; the per-link engine stays
    # single-worker so pools do not nest (workers^2 threads otherwise)
    per_link = GenerationEngine(chunk=chunk)
    children = np.random.SeedSequence(seed).spawn(len(workloads))

    def run(task):
        workload, child = task
        return per_link.rate_series(
            workload.arrival_rate,
            workload.model_ensemble(),
            shot,
            workload.duration,
            delta,
            rng=as_rng(child),
        )

    with make_pool("thread", workers) as pool:
        return pool.map_ordered(run, list(zip(workloads, children)))
