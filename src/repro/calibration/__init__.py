"""Trace → model calibration (the paper's fitting loop, out-of-core).

The subsystem that closes the reproduction's loop: where the rest of
the repo *replays* hand-written scenario specs, ``repro.calibration``
consumes measured traffic — raw arrays, measured
:class:`~repro.flows.FlowSet` objects, or multi-gigabyte NetFlow v5 /
IPFIX / pcap / ``.rptr`` archives — fits the paper's flow-size families
to it in bounded memory, selects the best model, and emits a frozen,
runnable :class:`~repro.pipeline.ScenarioSpec` whose synthesised λ and
E[S] reproduce the source trace.

Layering: accumulators (mergeable sufficient statistics) → fitters
(binned MLE/EM over the :data:`repro.netsim.sizes.SIZE_LAWS` families
+ model selection) → calibrator (the drivers) → report (the typed
result + spec emitter) → validate (the closed loop).
"""

from ..netsim.sizes import CALIBRATION_FAMILIES
from ..netsim.workloads import wire_sizes
from .accumulators import (
    DEFAULT_BINS,
    DEFAULT_TAIL_K,
    DEFAULT_TIME_BINS,
    CalibrationAccumulator,
)
from .calibrator import (
    DEFAULT_TAIL_QUANTILES,
    calibrate_accumulator,
    calibrate_archive,
    calibrate_flows,
    calibrate_sizes,
)
from .fitters import (
    SELECTION_CRITERIA,
    FamilyFit,
    fit_all_families,
    fit_family,
    grouped_log_likelihood,
    select_best,
    tail_qq,
)
from .report import CalibrationReport, DiurnalProfile, wire_bytes_per_flow
from .validate import ClosedLoopReport, validate_fitted_spec

__all__ = [
    "CALIBRATION_FAMILIES",
    "DEFAULT_BINS",
    "DEFAULT_TAIL_K",
    "DEFAULT_TAIL_QUANTILES",
    "DEFAULT_TIME_BINS",
    "SELECTION_CRITERIA",
    "CalibrationAccumulator",
    "CalibrationReport",
    "ClosedLoopReport",
    "DiurnalProfile",
    "FamilyFit",
    "calibrate_accumulator",
    "calibrate_archive",
    "calibrate_flows",
    "calibrate_sizes",
    "fit_all_families",
    "fit_family",
    "grouped_log_likelihood",
    "select_best",
    "tail_qq",
    "validate_fitted_spec",
    "wire_bytes_per_flow",
    "wire_sizes",
]
