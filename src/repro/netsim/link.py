"""Backbone-link trace synthesis: flows -> packets -> capture.

This is the stand-in for the paper's monitored Sprint OC-12 links.  Flows
arrive by an :class:`~repro.netsim.arrivals.ArrivalProcess`, draw a size
from a heavy-tailed law and endpoints from an
:class:`~repro.netsim.addresses.AddressSpace`; TCP flows transmit through
the round-based window model of :mod:`repro.netsim.tcp`, UDP flows as CBR
streams.  All packets are merged in timestamp order, exactly what a
passive tap records.

The synthesised link is *uncongested by construction* (no queueing model):
that is the paper's operating regime — backbone links are kept below 50%
utilisation, so flows do not interact on the monitored hop (Assumption 2's
independence).

The synthesis itself runs in the streaming engine
(:class:`repro.synthesis.SynthesisEngine`); this module keeps the
materialised result type, :class:`LinkSynthesis`, that
:meth:`~repro.synthesis.SynthesisEngine.synthesize` returns.  The trace
is cell-seeded: the arrival timeline is cut into fixed
:data:`~repro.synthesis.DEFAULT_SYNTHESIS_CELL`-second cells, each owning
its own ``SeedSequence`` child, and the per-cell packet blocks are merged
in time order.  The output is therefore a pure function of ``seed`` (and
the workload), identical bit for bit whether it is materialised or
streamed chunk by chunk with any ``chunk``/``workers`` configuration via
:meth:`~repro.synthesis.SynthesisEngine.synthesize_chunks`.  The
pre-engine single-stream implementation survives as
:func:`repro.synthesis.reference_synthesize_link_trace` (equal in
distribution, not draw for draw).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LinkSynthesis"]


@dataclass
class LinkSynthesis:
    """Result of one synthesis run: the trace plus generation ground truth.

    Ground truth (true flow start times, sizes, protocols) lets tests and
    experiments compare what the flow exporter *measures* against what was
    actually generated.  Flows are listed in arrival-cell order: sorted by
    start time within each cell (and globally sorted for memoryless
    arrival processes; session trains may interleave across cell
    boundaries).
    """

    trace: "PacketTrace"  # noqa: F821 - forward ref, see repro.trace
    flow_start_times: np.ndarray
    flow_sizes: np.ndarray
    flow_protocols: np.ndarray

    @property
    def n_flows(self) -> int:
        return int(self.flow_start_times.size)
