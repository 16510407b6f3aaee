"""Closed-loop validation: synthesize from the fitted spec, compare.

The acceptance test for a calibration is not a likelihood number — it
is whether a trace synthesised from the emitted
:class:`~repro.pipeline.ScenarioSpec` actually *looks like* the source
archive.  :func:`validate_fitted_spec` runs that loop: synthesize the
fitted workload with a fixed seed, then compare against the
calibration report

* λ — realised flow arrivals per second vs the calibrated rate,
* E[S] — mean wire bytes per flow (ground-truth payload sizes plus the
  per-packet header overhead the synthesiser adds) vs the trace mean,
* utilization moments — the Δ-averaged link rate's mean and coefficient
  of variation vs the source's byte rate,
* tail quantiles — the synthesised wire-size quantiles vs the
  empirical quantiles recorded in the report,

each within its declared relative tolerance.  Everything is seeded, so
a pass/fail verdict is deterministic and the comparison is
reproducible bitwise across execution backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ParameterError
from ..execution import ExecutionSpec
from ..netsim.workloads import wire_sizes
from ..stats.timeseries import RateSeries
from .report import CalibrationReport

__all__ = [
    "ClosedLoopReport",
    "validate_fitted_spec",
]

#: Default relative tolerances (λ, E[S], mean rate, tail quantiles) and
#: the Δ used for the utilization series.
DEFAULT_LAMBDA_RTOL = 0.02
DEFAULT_MEAN_RTOL = 0.02
DEFAULT_RATE_RTOL = 0.10
DEFAULT_TAIL_RTOL = 0.35
DEFAULT_COV_ATOL = 0.25
DEFAULT_DELTA = 1.0

#: Flows the auto-sized validation window aims for.  A 2% tolerance on
#: λ needs ~sqrt(n)/n << 2%; 50k flows put Poisson noise at ~0.45% and
#: the heavy-tailed E[S] noise near 1%, leaving real mismatches visible.
_MIN_VALIDATION_FLOWS = 50_000


def _relative_error(synthetic: float, source: float) -> float:
    if source == 0.0:
        return float("inf") if synthetic else 0.0
    return abs(synthetic - source) / abs(source)


@dataclass(frozen=True)
class ClosedLoopReport:
    """Source-vs-synthesised comparison, metric by metric."""

    seed: int
    duration: float
    lambda_source: float
    lambda_synthetic: float
    lambda_rel_err: float
    lambda_rtol: float
    mean_size_source: float
    mean_size_synthetic: float
    mean_size_rel_err: float
    mean_rtol: float
    mean_rate_source_bps: float
    mean_rate_synthetic_bps: float
    mean_rate_rel_err: float
    rate_rtol: float
    rate_cov_source: float | None
    rate_cov_synthetic: float
    cov_abs_err: float | None
    cov_atol: float
    tail: tuple[tuple[float, float, float, float], ...]
    tail_rtol: float
    failures: tuple[str, ...] = ()
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "seed": self.seed,
            "duration_s": self.duration,
            "lambda": {
                "source": self.lambda_source,
                "synthetic": self.lambda_synthetic,
                "rel_err": self.lambda_rel_err,
                "rtol": self.lambda_rtol,
            },
            "mean_size": {
                "source": self.mean_size_source,
                "synthetic": self.mean_size_synthetic,
                "rel_err": self.mean_size_rel_err,
                "rtol": self.mean_rtol,
            },
            "mean_rate_bps": {
                "source": self.mean_rate_source_bps,
                "synthetic": self.mean_rate_synthetic_bps,
                "rel_err": self.mean_rate_rel_err,
                "rtol": self.rate_rtol,
            },
            "rate_cov": {
                "source": self.rate_cov_source,
                "synthetic": self.rate_cov_synthetic,
                "abs_err": self.cov_abs_err,
                "atol": self.cov_atol,
            },
            "tail_quantiles": [
                {
                    "q": q,
                    "source": source,
                    "synthetic": synthetic,
                    "rel_err": err,
                }
                for q, source, synthetic, err in self.tail
            ],
            "tail_rtol": self.tail_rtol,
            "failures": list(self.failures),
            "metadata": dict(self.metadata),
        }


def validate_fitted_spec(
    report: CalibrationReport,
    spec=None,
    *,
    seed: int = 0,
    duration: float | None = None,
    delta: float = DEFAULT_DELTA,
    lambda_rtol: float = DEFAULT_LAMBDA_RTOL,
    mean_rtol: float = DEFAULT_MEAN_RTOL,
    rate_rtol: float = DEFAULT_RATE_RTOL,
    tail_rtol: float = DEFAULT_TAIL_RTOL,
    cov_atol: float = DEFAULT_COV_ATOL,
    source_rate_cov: float | None = None,
    execution: ExecutionSpec | None = None,
) -> ClosedLoopReport:
    """Run the calibrate → synthesize → compare loop once.

    ``spec`` defaults to ``report.to_scenario_spec()``; pass the spec
    you actually emitted to validate exactly what an operator will run.
    ``duration`` sets the synthesis window; when omitted it is
    auto-sized to ~50k flows — enough synthetic samples to resolve the
    2% tolerances regardless of the source capture's own length (long
    captures need not be replayed in full, sparse ones are extended).
    ``source_rate_cov`` enables the utilization second-moment check
    when the caller measured the source series.  ``execution`` (the
    calibration section's) sets the synthesis pool's ``workers``,
    ``backend`` and ``retry``; its ``chunk`` counts calibration records,
    so the in-memory synthesis keeps its own block size.  The verdict
    does not depend on it.
    """
    if duration is None and report.arrival_rate > 0.0:
        duration = max(
            _MIN_VALIDATION_FLOWS / report.arrival_rate, 30.0 * delta
        )
    if spec is None:
        spec = report.to_scenario_spec(duration=duration)
    workload = spec.workload.build()
    if duration is not None:
        if duration <= 0.0:
            raise ParameterError(
                f"validation duration must be > 0 s, got {duration!r}"
            )
        workload = workload.with_duration(float(duration))
    execution = execution or ExecutionSpec()
    synthesis = workload.synthesize(
        seed,
        workers=execution.workers,
        backend=execution.backend,
        retry=execution.retry,
    )
    span = workload.duration

    failures = []
    # The synthesiser leads in with warmup flows (negative start times)
    # so the capture opens in steady state; the arrival-rate comparison
    # counts only flows arriving inside the capture window, which is
    # what the source-side accumulator counted.
    starts = np.asarray(synthesis.flow_start_times, dtype=np.float64)
    in_window = (starts >= 0.0) & (starts < span)
    n_in_window = int(np.count_nonzero(in_window))
    lambda_synth = n_in_window / span
    lambda_err = _relative_error(lambda_synth, report.arrival_rate)
    if not lambda_err <= lambda_rtol:
        failures.append(
            f"lambda off by {lambda_err:.2%} (> {lambda_rtol:.2%}): "
            f"source {report.arrival_rate:g}/s vs synthetic "
            f"{lambda_synth:g}/s"
        )

    wire = wire_sizes(
        np.asarray(synthesis.flow_sizes, dtype=np.float64)[in_window],
        workload.tcp_params,
    )
    mean_synth = float(wire.mean()) if wire.size else 0.0
    mean_err = _relative_error(mean_synth, report.mean_size)
    if not mean_err <= mean_rtol:
        failures.append(
            f"E[S] off by {mean_err:.2%} (> {mean_rtol:.2%}): source "
            f"{report.mean_size:g} B vs synthetic {mean_synth:g} B"
        )

    series = RateSeries.from_packets(synthesis.trace, delta, duration=span)
    rate_synth = 8.0 * float(series.values.mean()) if series.values.size else 0.0
    rate_err = _relative_error(rate_synth, report.mean_rate_bps)
    if not rate_err <= rate_rtol:
        failures.append(
            f"mean rate off by {rate_err:.2%} (> {rate_rtol:.2%}): source "
            f"{report.mean_rate_bps:g} bps vs synthetic {rate_synth:g} bps"
        )

    if series.values.size and series.values.mean() > 0.0:
        cov_synth = float(series.values.std() / series.values.mean())
    else:
        cov_synth = 0.0
    cov_err = None
    if source_rate_cov is not None:
        cov_err = abs(cov_synth - float(source_rate_cov))
        if not cov_err <= cov_atol:
            failures.append(
                f"rate CoV off by {cov_err:.3f} (> {cov_atol:.3f}): source "
                f"{source_rate_cov:.3f} vs synthetic {cov_synth:.3f}"
            )

    tail_rows = []
    for q, source_value in report.tail_quantiles:
        if wire.size == 0:
            break
        synth_value = float(np.quantile(wire, q))
        err = _relative_error(synth_value, source_value)
        tail_rows.append((float(q), float(source_value), synth_value, err))
        if not err <= tail_rtol:
            failures.append(
                f"q={q:g} quantile off by {err:.2%} (> {tail_rtol:.2%}): "
                f"source {source_value:g} B vs synthetic {synth_value:g} B"
            )

    return ClosedLoopReport(
        seed=int(seed),
        duration=span,
        lambda_source=report.arrival_rate,
        lambda_synthetic=lambda_synth,
        lambda_rel_err=lambda_err,
        lambda_rtol=lambda_rtol,
        mean_size_source=report.mean_size,
        mean_size_synthetic=mean_synth,
        mean_size_rel_err=mean_err,
        mean_rtol=mean_rtol,
        mean_rate_source_bps=report.mean_rate_bps,
        mean_rate_synthetic_bps=rate_synth,
        mean_rate_rel_err=rate_err,
        rate_rtol=rate_rtol,
        rate_cov_source=(
            float(source_rate_cov) if source_rate_cov is not None else None
        ),
        rate_cov_synthetic=cov_synth,
        cov_abs_err=cov_err,
        cov_atol=cov_atol,
        tail=tuple(tail_rows),
        tail_rtol=tail_rtol,
        failures=tuple(failures),
        metadata={"flows": synthesis.n_flows, "flows_in_window": n_in_window},
    )
