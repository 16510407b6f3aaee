#!/usr/bin/env python
"""Flow-definition agnosticism (paper sections III and VI-A).

The model works with *any* flow definition; coarser definitions are
cheaper for the router.  This example measures the same capture under
four definitions — 5-tuple, /24 prefix, /16 prefix, and routable FIB
prefixes (longest-prefix match, the paper's proposed extension) — and
shows that the three-parameter model tracks the measured CoV at every
aggregation level while the flow table shrinks.

Run:  python examples/flow_definitions.py
"""

from __future__ import annotations

from repro.core import MGInfinityModel, PoissonShotNoiseModel
from repro.experiments import DELTA, SCALED_TIMEOUT
from repro.flows import (
    RoutingTable,
    active_flow_counts,
    export_flows,
    routed_packets,
)
from repro.measurement import MeasurementEngine
from repro.netsim import AddressSpace, medium_utilization_link


def main() -> None:
    workload = medium_utilization_link(duration=120.0)
    trace = workload.synthesize(seed=13).trace
    print(f"capture: {trace}\n")

    table = RoutingTable.synthetic(AddressSpace(), coarse_fraction=0.5, rng=1)
    # (name, packets, flow key): FIB flows are /32 prefixes of the
    # routed packets, whose destination is rewritten to the FIB entry
    definitions = [
        ("5-tuple", trace, dict(key="five_tuple")),
        ("/24 prefix", trace, dict(key="prefix", prefix_length=24)),
        ("/16 prefix", trace, dict(key="prefix", prefix_length=16)),
        (f"FIB ({len(table)} routes)", routed_packets(trace, table),
         dict(key="prefix", prefix_length=32)),
    ]

    print(f"{'definition':>18s} {'flows':>6s} {'avg act.':>9s} "
          f"{'mean dur':>9s} {'meas CoV':>9s} {'model CoV':>10s} {'b':>5s}")
    for name, packets, key in definitions:
        # flows and the single-packet-filtered rate series in one pass
        result = MeasurementEngine().measure_trace(
            packets, delta=DELTA, duration=trace.duration,
            timeout=SCALED_TIMEOUT, **key,
        )
        flows, series = result.flows, result.series
        model = PoissonShotNoiseModel.from_flows(
            flows.sizes, flows.durations, trace.duration
        )
        fit = model.fit_power(series.variance)
        counts = active_flow_counts(flows, DELTA, duration=trace.duration)
        print(
            f"{name:>18s} {len(flows):6d} {counts.mean:9.1f} "
            f"{flows.durations.mean():8.2f}s "
            f"{series.coefficient_of_variation:9.1%} "
            f"{model.with_shot(fit.shot).coefficient_of_variation:10.1%} "
            f"{fit.power:5.2f}"
        )

    print(
        "\nnote: at /16 (and partly FIB) our scaled population collapses to"
        "\na handful of interval-spanning mega-flows - the many-iid-flows"
        "\npremise of the model breaks, and the clipped rectangular fit"
        "\nover-predicts. The paper's full-scale traces keep thousands of"
        "\nflows even at coarse aggregation."
    )

    # flow-table sizing from the M/G/infinity count model (section V-A)
    flows = export_flows(
        trace, key="prefix", prefix_length=24, timeout=SCALED_TIMEOUT
    )
    mg = MGInfinityModel(
        len(flows) / trace.duration, durations=flows.durations
    )
    print(f"\n/24 flow-table sizing: mean active = {mg.load:.0f}, "
          f"99.9th percentile = {mg.quantile(0.999)} entries "
          "(Poisson marginal, section V-A)")


if __name__ == "__main__":
    main()
