"""Flow records leave a FlowSet start-ordered by integer keys, not argsort.

:func:`repro.interop.records.start_order` maps each start to an
order-preserving uint64 and runs the flow exporter's key order over it;
its permutation must be the stable argsort's on every float64 input,
or exported archives would change byte for byte.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution import ExecutionSpec
from repro.interop import FLOW_RECORD_DTYPE, flow_records_from_flowset
from repro.interop.records import start_order
from repro.pipeline import (
    AccountFlows,
    MeasurementSpec,
    PipelineContext,
    SynthesisSpec,
    Synthesize,
    default_registry,
)

#: Values that sort specially: signed zeros, infinities, NaN (both
#: signs), subnormals, and ties with everything else drawn.
SPECIAL = [
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
    1.0, -1.0, 1.0 + 2**-52,
]

starts = st.lists(
    st.one_of(
        st.sampled_from(SPECIAL),
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(-3, 3).map(float),
    ),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(starts)
def test_start_order_is_the_stable_argsort(values):
    values = np.array(values, dtype=np.float64)
    np.testing.assert_array_equal(
        start_order(values), np.argsort(values, kind="stable")
    )


def test_nan_payloads_and_signs_sort_last_in_input_order():
    bits = np.array(
        [0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001],
        dtype=np.uint64,
    )
    values = np.concatenate(([3.0], bits.view(np.float64), [-2.0]))
    np.testing.assert_array_equal(start_order(values), [4, 0, 1, 2, 3])


def test_seed0_telemetry_flows_export_byte_identically():
    """The ``medium`` link at scale 1.0 for 240 s, seed 0, exports the
    same record bytes as a gather in stable-argsort order."""
    execution = ExecutionSpec(chunk=200_000, workers=1, backend="serial")
    spec = default_registry().get("medium")
    spec = replace(
        spec,
        seed=0,
        workload=replace(spec.workload, scale=1.0, duration=240.0),
        synthesis=SynthesisSpec(execution=execution),
        measurement=MeasurementSpec(execution=execution),
    )
    context = PipelineContext(spec=spec)
    Synthesize().run(context)
    flows = AccountFlows().run(context).flows
    assert len(flows) == 446_654

    order = np.argsort(flows.starts, kind="stable")
    expected = np.empty(len(flows), dtype=FLOW_RECORD_DTYPE)
    expected["start"] = flows.starts[order]
    expected["end"] = flows.ends[order]
    for field in ("src_addr", "dst_addr", "src_port", "dst_port", "protocol"):
        expected[field] = flows.keys[field][order]
    expected["packets"] = flows.packet_counts[order]
    expected["octets"] = flows.sizes[order].astype(np.int64)
    assert flow_records_from_flowset(flows).tobytes() == expected.tobytes()
