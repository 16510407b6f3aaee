"""Fluid shot-noise traffic generation — section VII-C.

Generates a sample path of the total rate ``R(t)`` directly from the model
ingredients (Poisson arrivals, a flow ensemble, a shot): the synthetic
traffic a network simulator would be fed.  The paper's point is that
transmitting each flow's bytes along a fitted shot — rather than at a
constant rate — is what makes the generated traffic match the real
second-order statistics.

The path is produced as exact bin averages: each flow's contribution to a
bin is the increment of its cumulative byte curve over the bin, divided by
the bin length — so the generated series is directly comparable to a
:class:`~repro.stats.timeseries.RateSeries` measured with the same Delta.

Since the engine refactor this module is a thin front-end over
:class:`~repro.generation.engine.GenerationEngine`: the same seed produces
the same series as the original per-flow loop (kept as
:func:`~repro.generation.reference.reference_rate_series`), bit for bit,
for any ``chunk`` / ``workers`` setting.
"""

from __future__ import annotations

from ..core.ensemble import FlowEnsemble
from ..core.shots import Shot
from ..stats.timeseries import RateSeries
from .engine import GenerationEngine

__all__ = ["generate_rate_series"]


def generate_rate_series(
    arrival_rate: float,
    ensemble: FlowEnsemble,
    shot: Shot,
    duration: float,
    delta: float,
    *,
    warmup: float | None = None,
    rng=None,
    chunk: float | None = None,
    workers: int = 1,
    engine: GenerationEngine | None = None,
) -> RateSeries:
    """Simulate the Delta-averaged total rate of the shot-noise model.

    Parameters
    ----------
    arrival_rate:
        Flow arrival rate ``lambda`` (flows/second).
    ensemble:
        Joint (size, duration) law flows are drawn from.
    shot:
        Rate profile applied to every flow.
    duration:
        Length of the generated path (seconds).
    delta:
        Averaging bin (seconds); the result has ``duration/delta`` samples.
    warmup:
        Extra lead-in time so the process is stationary at t=0.  Defaults
        to a high quantile of the sampled flow durations.
    rng:
        Seed or Generator.
    chunk:
        Accumulate in windows of this many seconds (bounds peak memory of
        the vectorized scatter).  ``None`` processes the horizon at once.
    workers:
        Thread-pool width for independent chunks; never changes the result.
    engine:
        Pre-configured :class:`GenerationEngine` to route through
        (overrides ``chunk`` / ``workers``).
    """
    if engine is None:
        engine = GenerationEngine(chunk=chunk, workers=workers)
    return engine.rate_series(
        arrival_rate, ensemble, shot, duration, delta, warmup=warmup, rng=rng
    )
