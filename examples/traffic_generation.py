#!/usr/bin/env python
"""Backbone traffic generation for simulators (paper section VII-C).

Calibrate the model on a "real" capture, then generate synthetic traffic
with the same statistics — both as a fluid rate path and as a full packet
trace written to the binary capture format.  The key paper insight: flows
must transmit along the *fitted shot*, not at a constant rate, or the
generated traffic is too smooth.

Run:  python examples/traffic_generation.py
"""

from __future__ import annotations

import os
import tempfile

from repro.core import PoissonShotNoiseModel, RectangularShot
from repro.experiments import DELTA, SCALED_TIMEOUT
from repro.flows import export_five_tuple_flows
from repro.generation import GenerationEngine
from repro.measurement import MeasurementEngine
from repro.netsim import medium_utilization_link
from repro.trace import read_trace, write_trace


def main() -> None:
    # -- calibrate on a measured capture ---------------------------------
    workload = medium_utilization_link(duration=120.0)
    real = workload.synthesize(seed=5).trace
    # one pass: the flows and the single-packet-filtered rate series
    result = MeasurementEngine().measure_trace(
        real, delta=DELTA, timeout=SCALED_TIMEOUT
    )
    flows, measured = result.flows, result.series
    model = PoissonShotNoiseModel.from_flows(
        flows.sizes, flows.durations, real.duration
    )
    fit = model.fit_power(measured.variance)
    print(f"calibration: lambda = {model.arrival_rate:.1f}/s, "
          f"fitted shot power b = {fit.power:.2f}")
    print(f"measured: mean = {measured.mean / 1e3:.1f} kB/s, "
          f"CoV = {measured.coefficient_of_variation:.2%}\n")

    # -- fluid generation: right shot vs naive constant rate -------------
    # the engine's chunk/workers bound memory and parallelise the
    # accumulation; the output is the same bit for bit for any setting.
    for shot, label in ((fit.shot, f"fitted b={fit.power:.2f}"),
                        (RectangularShot(), "naive constant-rate")):
        generated = GenerationEngine(chunk=30.0, workers=2).rate_series(
            model.arrival_rate, model.ensemble, shot,
            duration=240.0, delta=DELTA, rng=1,
        )
        print(f"generated ({label:22s}): mean = {generated.mean / 1e3:7.1f} kB/s, "
              f"CoV = {generated.coefficient_of_variation:.2%}")

    # -- long-horizon fluid generation in bounded memory ------------------
    engine = GenerationEngine(chunk=60.0, workers=2)
    long_series = engine.rate_series_streamed(
        model.arrival_rate, model.ensemble, fit.shot,
        duration=1800.0, delta=DELTA, seed=3,
    )
    print(f"\nstreamed 30-minute path: mean = {long_series.mean / 1e3:.1f} kB/s, "
          f"CoV = {long_series.coefficient_of_variation:.2%} "
          f"({len(long_series)} bins, memory bounded by the 60 s chunk)")

    # -- packet-level generation + capture round trip --------------------
    trace = GenerationEngine().packet_trace(
        model.arrival_rate, model.ensemble, fit.shot,
        duration=60.0, link_capacity=real.link_capacity, rng=2,
        name="generated-for-simulator",
    )
    print(f"\npacket generation: {trace}")

    path = os.path.join(tempfile.mkdtemp(), "generated.rptr")
    write_trace(trace, path)
    back = read_trace(path)
    print(f"written + re-read capture: {back} "
          f"({os.path.getsize(path) / 1e6:.1f} MB on disk)")

    # the generated capture re-measures like the original
    regen_flows = export_five_tuple_flows(back, timeout=SCALED_TIMEOUT)
    regen_stats = regen_flows.statistics(back.duration)
    print(f"re-measured from generated capture: lambda = "
          f"{regen_stats.arrival_rate:.1f}/s, "
          f"E[S] = {regen_stats.mean_size / 1e3:.1f} kB "
          f"(calibration E[S] = {model.ensemble.mean_size / 1e3:.1f} kB)")


if __name__ == "__main__":
    main()
