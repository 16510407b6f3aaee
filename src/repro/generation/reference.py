"""Reference (pre-engine) rate-path accumulation — the validation oracle.

This module preserves the original per-flow Python loop of the rate
path, byte for byte in behaviour: one pass over the given flows, one
``volumes[lo:hi] += diff`` per flow.
:meth:`repro.generation.GenerationEngine.rate_series` must reproduce
this function's output **bit-for-bit** when the loop is fed the flows
the engine's arrival cells draw, in cell order — the equivalence tests
in ``tests/generation/test_engine.py`` and the scaling benchmark in
``benchmarks/bench_engine_scaling.py`` both treat it as ground truth,
so do not "optimise" it.
"""

from __future__ import annotations

import numpy as np

from .._util import check_positive
from ..core.shots import Shot
from ..exceptions import ParameterError
from ..stats.timeseries import RateSeries

__all__ = ["reference_rate_series"]


def reference_rate_series(
    starts,
    sizes,
    flow_durations,
    shot: Shot,
    duration: float,
    delta: float,
) -> RateSeries:
    """The Delta-averaged total rate of the given flows, flow by flow."""
    duration = check_positive("duration", duration)
    delta = check_positive("delta", delta)
    if delta > duration:
        raise ParameterError("delta must not exceed duration")
    n_flows = len(starts)

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
