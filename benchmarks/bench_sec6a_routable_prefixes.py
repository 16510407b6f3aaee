"""Section VI-A — flow-definition aggregation sweep, up to routable prefixes.

Paper: defining flows by /24 destination prefix cuts the number of flows a
router must track by an order of magnitude versus 5-tuples, and "routable"
(FIB-entry) prefixes would cut further — while the model keeps working at
every aggregation level because it is flow-definition agnostic.

The benchmark measures, on one capture: tracked-flow counts for 5-tuple,
/24, /16 and a synthetic FIB (longest-prefix match), plus the model's CoV
accuracy at each level.
"""

from __future__ import annotations

from conftest import print_header, run_once

from repro.core import PoissonShotNoiseModel
from repro.experiments import DELTA, SCALED_TIMEOUT
from repro.flows import RoutingTable, routed_packets
from repro.measurement import MeasurementEngine
from repro.netsim import AddressSpace


def test_sec6a_aggregation_levels(benchmark, reference_trace):
    space = AddressSpace()  # matches the workload's population
    table = RoutingTable.synthetic(space, coarse_fraction=0.5, rng=7)

    def build():
        # (name, packets, flow key): FIB flows are /32 prefixes of the
        # routed packets, whose destination is rewritten to the FIB entry
        configs = [
            ("5-tuple", reference_trace, dict(key="five_tuple")),
            ("/24 prefix", reference_trace, dict(key="prefix", prefix_length=24)),
            ("/16 prefix", reference_trace, dict(key="prefix", prefix_length=16)),
            ("routable (FIB)", routed_packets(reference_trace, table),
             dict(key="prefix", prefix_length=32)),
        ]
        rows = []
        for name, packets, key in configs:
            # the flows and their single-packet-filtered rate, one pass
            result = MeasurementEngine().measure_trace(
                packets, delta=DELTA, duration=reference_trace.duration,
                timeout=SCALED_TIMEOUT, **key,
            )
            rows.append((name, result.flows, result.series))
        return rows

    rows = run_once(benchmark, build)

    print_header("SECTION VI-A - flow aggregation levels")
    print(f"  {'definition':>16s} {'flows':>7s} {'vs 5-tuple':>11s} "
          f"{'mean dur (s)':>13s} {'fitted b':>9s} {'model CoV err':>14s}")
    n_5tuple = len(rows[0][1])
    for name, flows, series in rows:
        model = PoissonShotNoiseModel.from_flows(
            flows.sizes, flows.durations, reference_trace.duration
        )
        fit = model.fit_power(series.variance)
        err = (
            model.with_shot(fit.shot).coefficient_of_variation
            / series.coefficient_of_variation
            - 1.0
        )
        print(
            f"  {name:>16s} {len(flows):7d} {len(flows) / n_5tuple:11.2f} "
            f"{flows.durations.mean():13.2f} {fit.power:9.2f} {err:+14.1%}"
        )

    counts = [len(flows) for _, flows, _ in rows]
    # aggregation is monotone: 5-tuple > /24 > /16; FIB between /24 and /16
    assert counts[0] > counts[1] > counts[2]
    assert counts[2] <= counts[3] <= counts[1]
