"""Reference (pre-engine) rate-path generator — the validation oracle.

This module preserves the original per-flow Python loop of the rate
path, byte for byte in behaviour: one global RNG stream, one pass over
flows, one ``volumes[lo:hi] += diff`` per flow.
:meth:`repro.generation.GenerationEngine.rate_series` must reproduce
this function's output **bit-for-bit** for the same seed — the
equivalence tests in ``tests/generation/test_engine.py`` and the
scaling benchmark in ``benchmarks/bench_engine_scaling.py`` both treat
it as ground truth, so do not "optimise" it.
"""

from __future__ import annotations

import numpy as np

from .._util import as_rng, check_positive
from ..core.ensemble import FlowEnsemble
from ..core.shots import Shot
from ..exceptions import ParameterError
from ..stats.timeseries import RateSeries

__all__ = ["reference_rate_series"]


def reference_rate_series(
    arrival_rate: float,
    ensemble: FlowEnsemble,
    shot: Shot,
    duration: float,
    delta: float,
    *,
    warmup: float | None = None,
    rng=None,
) -> RateSeries:
    """Simulate the Delta-averaged total rate with the original flow loop."""
    arrival_rate = check_positive("arrival_rate", arrival_rate)
    duration = check_positive("duration", duration)
    delta = check_positive("delta", delta)
    if delta > duration:
        raise ParameterError("delta must not exceed duration")
    rng = as_rng(rng)

    # draw a provisional sample to size the warm-up
    if warmup is None:
        _, probe_durations = ensemble.sample(2048, rng)
        warmup = float(np.quantile(probe_durations, 0.99))
    warmup = max(float(warmup), 0.0)

    horizon = duration + warmup
    n_flows = rng.poisson(arrival_rate * horizon)
    if n_flows == 0:
        raise ParameterError(
            "no flows generated; increase arrival_rate or duration"
        )
    starts = rng.random(n_flows) * horizon - warmup
    sizes, flow_durations = ensemble.sample(n_flows, rng)

    n_bins = int(np.floor(duration / delta))
    edges = delta * np.arange(n_bins + 1)
    volumes = np.zeros(n_bins)

    # Each flow adds C(t1 - T) - C(t0 - T) bytes to bin [t0, t1): exact.
    first_bin = np.clip(np.floor(starts / delta).astype(np.int64), 0, n_bins)
    last_bin = np.clip(
        np.ceil((starts + flow_durations) / delta).astype(np.int64), 0, n_bins
    )
    for i in range(n_flows):
        lo, hi = first_bin[i], last_bin[i]
        if hi <= 0 or lo >= n_bins or hi <= lo:
            # entirely outside the observation window, or zero-width
            if lo >= n_bins or hi <= 0:
                continue
        lo = max(lo, 0)
        hi = min(max(hi, lo + 1), n_bins)
        local_edges = edges[lo: hi + 1]
        cumulative = shot.cumulative(
            local_edges - starts[i], sizes[i], flow_durations[i]
        )
        volumes[lo:hi] += np.diff(cumulative)

    return RateSeries(volumes / delta, delta)
