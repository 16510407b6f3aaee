"""The typed calibration result: what was measured, what was fitted.

A :class:`CalibrationReport` is the complete, JSON-serialisable record
of one trace-to-model calibration: the trace summary (flow count, byte
total, λ, E[S]), the per-family candidate fits with their diagnostics,
the winning family under the selection criterion, the diurnal arrival
profile, and the knobs that produced it (seed, binning).  It lands in
``ScenarioResult.calibration`` and the ``--report`` JSON, and —
centrally — :meth:`CalibrationReport.to_scenario_spec` turns it back
into a frozen, runnable :class:`~repro.pipeline.ScenarioSpec`:

* the fitted *wire-byte* law is deflated by a scalar so that, after the
  synthesiser re-adds per-packet header overhead, the mean wire bytes
  per flow equals the trace's ``E[S]`` (every law in
  :data:`~repro.netsim.sizes.SIZE_LAWS` is scale-closed, so
  ``law.scaled(c)`` leaves the shape untouched), and
* the workload's target rate is set to ``8 λ E[wire]`` using the same
  seeded Monte Carlo the workload itself uses, so the synthesised
  arrival rate equals the trace's λ *exactly* by construction.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from ..exceptions import ParameterError
from ..netsim.sizes import size_law
from ..netsim.tcp import TcpParameters
from ..netsim.workloads import wire_bytes_per_flow
from .fitters import FamilyFit

__all__ = [
    "CalibrationReport",
    "DiurnalProfile",
    "wire_bytes_per_flow",
]


def deflate_for_wire(
    family: str,
    params: dict,
    target_wire_mean: float,
    *,
    tcp_params: TcpParameters = TcpParameters(),
    iterations: int = 12,
) -> dict:
    """Scale a fitted wire-byte law into the payload law to synthesise.

    Trace archives record *wire* octets (headers included); the
    synthesiser draws *payload* sizes and re-adds
    ``header * ceil(S/mss)`` per flow.  This solves for the scalar
    ``c`` with ``E[wire(c * S)] = target_wire_mean`` by fixed-point
    iteration on the family's own seeded Monte Carlo draws — exact
    scale-closure makes each iterate cheap and deterministic.
    """
    if target_wire_mean <= 0.0:
        raise ParameterError(
            f"target wire mean must be > 0 bytes, got {target_wire_mean!r}"
        )
    law = size_law(family, params)
    factor = 1.0
    for _ in range(iterations):
        wire = wire_bytes_per_flow(law.scaled(factor), tcp_params)
        factor *= target_wire_mean / wire
    return asdict(law.scaled(factor))


@dataclass(frozen=True)
class DiurnalProfile:
    """Arrival rate per time bin over the capture (flows/second)."""

    edges: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.edges) != len(self.rates) + 1:
            raise ParameterError(
                "diurnal profile needs len(edges) == len(rates) + 1, got "
                f"{len(self.edges)} edges for {len(self.rates)} rates"
            )

    @property
    def mean_rate(self) -> float:
        widths = np.diff(np.asarray(self.edges))
        total = float(widths.sum())
        return float(np.sum(np.asarray(self.rates) * widths) / total)

    @property
    def peak_to_mean(self) -> float:
        """Burstiness of the arrival process at the profile's timescale."""
        mean = self.mean_rate
        return float(max(self.rates) / mean) if mean > 0.0 else float("nan")

    def to_dict(self) -> dict:
        return {"edges": list(self.edges), "rates": list(self.rates)}

    @classmethod
    def from_dict(cls, data: dict) -> "DiurnalProfile":
        return cls(
            edges=tuple(float(v) for v in data["edges"]),
            rates=tuple(float(v) for v in data["rates"]),
        )


@dataclass(frozen=True)
class CalibrationReport:
    """Everything one calibration run learned about a trace."""

    source: str
    flow_count: int
    total_bytes: int
    duration: float
    arrival_rate: float
    mean_size: float
    mean_rate_bps: float
    family: str
    params: dict
    selection: str
    candidates: tuple[FamilyFit, ...]
    diurnal: DiurnalProfile
    tail_quantiles: tuple[tuple[float, float], ...] = ()
    seed: int = 0
    bins: int = 0
    tail_k: int = 0
    link_capacity_bps: float | None = None
    backend: str = "serial"
    workers: int = 1
    metadata: dict = field(default_factory=dict)

    @property
    def chosen(self) -> FamilyFit:
        """The winning candidate's full fit record."""
        for candidate in self.candidates:
            if candidate.family == self.family:
                return candidate
        raise ParameterError(
            f"report names family {self.family!r} but carries no such "
            "candidate fit"
        )

    # -- serialisation ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "flow_count": self.flow_count,
            "total_bytes": self.total_bytes,
            "duration": self.duration,
            "arrival_rate": self.arrival_rate,
            "mean_size": self.mean_size,
            "mean_rate_bps": self.mean_rate_bps,
            "family": self.family,
            "params": {k: float(v) for k, v in self.params.items()},
            "selection": self.selection,
            "candidates": [fit.to_dict() for fit in self.candidates],
            "diurnal": self.diurnal.to_dict(),
            "tail_quantiles": [list(pair) for pair in self.tail_quantiles],
            "seed": self.seed,
            "bins": self.bins,
            "tail_k": self.tail_k,
            "link_capacity_bps": self.link_capacity_bps,
            "backend": self.backend,
            "workers": self.workers,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CalibrationReport":
        data = dict(data)
        data["candidates"] = tuple(
            FamilyFit.from_dict(item) for item in data.get("candidates", ())
        )
        data["diurnal"] = DiurnalProfile.from_dict(data["diurnal"])
        data["tail_quantiles"] = tuple(
            (float(q), float(v)) for q, v in data.get("tail_quantiles", ())
        )
        return cls(**data)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "CalibrationReport":
        return cls.from_dict(json.loads(text))

    def summary(self) -> dict:
        """The compact stanza ``ScenarioResult.report()`` embeds."""
        chosen = self.chosen
        return {
            "source": self.source,
            "flows": self.flow_count,
            "duration_s": self.duration,
            "arrival_rate_per_s": self.arrival_rate,
            "mean_size_bytes": self.mean_size,
            "mean_rate_bps": self.mean_rate_bps,
            "family": self.family,
            "params": {k: float(v) for k, v in self.params.items()},
            "selection": self.selection,
            "bic": chosen.bic,
            "ks": chosen.ks_statistic,
            "tail_qq_rmse_log10": chosen.tail_qq_rmse_log10,
            "peak_to_mean_arrivals": self.diurnal.peak_to_mean,
            "candidates": {
                fit.family: fit.bic for fit in self.candidates
            },
        }

    # -- the spec emitter -------------------------------------------------

    def to_scenario_spec(
        self,
        *,
        name: str | None = None,
        duration: float | None = None,
        link_capacity_bps: float | None = None,
        seed: int = 0,
    ):
        """Emit a frozen, runnable ScenarioSpec reproducing this trace.

        The returned spec synthesises a link whose flow arrival rate
        equals the calibrated λ exactly (the target rate is computed
        through the same seeded Monte Carlo the workload uses) and
        whose mean wire bytes per flow matches the trace's ``E[S]`` to
        fixed-point accuracy.
        """
        from ..pipeline.spec import (
            ScenarioSpec,
            SizeDistributionSpec,
            WorkloadSpec,
        )

        payload_params = deflate_for_wire(
            self.family, self.params, self.mean_size
        )
        sizes = SizeDistributionSpec.from_family(self.family, payload_params)
        wire_mean = wire_bytes_per_flow(sizes.build())
        target_bps = 8.0 * self.arrival_rate * wire_mean
        capacity = (
            float(link_capacity_bps)
            if link_capacity_bps is not None
            else self.link_capacity_bps
        )
        if capacity is None or capacity <= target_bps:
            # headroom keeps the synthesiser's uncongested-link
            # assumption (the paper's links stay below ~50% utilisation)
            capacity = 2.0 * target_bps
        return ScenarioSpec(
            name=name or f"calibrated:{self.source}",
            seed=seed,
            workload=WorkloadSpec(
                target_mean_rate_bps=target_bps,
                link_capacity_bps=capacity,
                duration=(
                    float(duration) if duration is not None else self.duration
                ),
                name=name or f"calibrated:{self.source}",
                sizes=sizes,
            ),
        )
