"""Flow records and flow sets (the exporter's output).

A :class:`FlowSet` is the columnar result of running flow accounting over a
packet trace: per-flow start/end timestamps, byte counts and packet counts,
plus the bookkeeping the paper's measurement methodology requires (which
packets were discarded as single-packet flows).  It feeds directly into the
model (:meth:`FlowSet.to_ensemble`, :meth:`FlowSet.statistics`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from ..core.ensemble import EmpiricalEnsemble
from ..core.parameters import FlowStatistics
from ..exceptions import ParameterError
from .keys import FiveTuple, PrefixKey

__all__ = ["FlowRecord", "FlowSet"]

FlowKey = Union[FiveTuple, PrefixKey]


@dataclass(frozen=True)
class FlowRecord:
    """One exported flow (the NetFlow-record analogue)."""

    key: FlowKey
    start: float
    end: float
    size_bytes: int
    packets: int

    @property
    def duration(self) -> float:
        """Time between the first and the last packet (section III)."""
        return self.end - self.start

    @property
    def mean_rate(self) -> float:
        """Average throughput S/D in bytes/second."""
        return self.size_bytes / self.duration


class FlowSet:
    """Columnar set of flows exported from one measurement interval.

    Attributes
    ----------
    starts, ends:
        First/last packet timestamp per flow (seconds).
    sizes:
        Bytes per flow.
    packet_counts:
        Packets per flow (always >= 2 after the single-packet discard).
    key_kind:
        ``"five_tuple"`` or ``"prefix"``.
    keys:
        Per-flow key payload: a structured array (five-tuple) or a uint32
        prefix array.
    discarded_packets:
        Number of packets dropped because they formed single-packet flows;
        the paper excludes them from the measured rate as well.
    """

    def __init__(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        sizes: np.ndarray,
        packet_counts: np.ndarray,
        *,
        key_kind: str,
        keys: np.ndarray,
        prefix_length: int = 24,
        timeout: float = 60.0,
        discarded_packets: int = 0,
    ) -> None:
        self.starts = np.asarray(starts, dtype=np.float64)
        self.ends = np.asarray(ends, dtype=np.float64)
        self.sizes = np.asarray(sizes, dtype=np.float64)
        self.packet_counts = np.asarray(packet_counts, dtype=np.int64)
        n = self.starts.size
        if not (self.ends.size == self.sizes.size == self.packet_counts.size == n):
            raise ParameterError("flow columns must have equal length")
        if np.any(self.ends < self.starts):
            raise ParameterError("flow end before start")
        if key_kind not in ("five_tuple", "prefix"):
            raise ParameterError(f"unknown key_kind {key_kind!r}")
        self.key_kind = key_kind
        self.keys = keys
        self.prefix_length = int(prefix_length)
        self.timeout = float(timeout)
        self.discarded_packets = int(discarded_packets)

    def __len__(self) -> int:
        return int(self.starts.size)

    def __repr__(self) -> str:
        return (
            f"FlowSet(kind={self.key_kind!r}, flows={len(self)}, "
            f"bytes={self.total_bytes:g})"
        )

    # -- derived columns -----------------------------------------------------

    @property
    def durations(self) -> np.ndarray:
        """Last-minus-first packet time per flow; strictly positive."""
        return self.ends - self.starts

    @property
    def total_bytes(self) -> float:
        return float(self.sizes.sum())

    @property
    def interarrival_times(self) -> np.ndarray:
        """Successive differences of the *sorted* flow start times.

        These are the samples behind the paper's Figures 3-4 (qq-plot
        against the exponential and autocorrelation).
        """
        if len(self) < 2:
            return np.zeros(0)
        return np.diff(np.sort(self.starts))

    def key_of(self, index: int) -> FlowKey:
        """Materialise the flow key object for one flow."""
        if self.key_kind == "five_tuple":
            row = self.keys[index]
            return FiveTuple(
                int(row["src_addr"]),
                int(row["dst_addr"]),
                int(row["src_port"]),
                int(row["dst_port"]),
                int(row["protocol"]),
            )
        return PrefixKey(int(self.keys[index]), self.prefix_length)

    def records(self) -> Iterator[FlowRecord]:
        """Iterate flows as :class:`FlowRecord` objects."""
        for i in range(len(self)):
            yield FlowRecord(
                key=self.key_of(i),
                start=float(self.starts[i]),
                end=float(self.ends[i]),
                size_bytes=int(self.sizes[i]),
                packets=int(self.packet_counts[i]),
            )

    # -- model bridges ---------------------------------------------------

    def to_ensemble(self) -> EmpiricalEnsemble:
        """Empirical (S, D) ensemble for the shot-noise model."""
        if len(self) == 0:
            raise ParameterError("cannot build an ensemble from zero flows")
        return EmpiricalEnsemble(self.sizes, self.durations)

    def statistics(self, interval_length: float) -> FlowStatistics:
        """The paper's three-parameter summary over this interval."""
        return FlowStatistics.from_flows(
            self.sizes, self.durations, interval_length
        )

    def partition_by_size(self, threshold: float) -> tuple["FlowSet", "FlowSet"]:
        """Split into (mice, elephants) at a byte threshold.

        Supports the section VIII multi-class extension: fit a different
        shot per class and superpose the models
        (:class:`repro.core.SuperposedModel`).
        """
        if threshold <= 0:
            raise ParameterError("threshold must be > 0")
        small = self.sizes < threshold
        if not small.any() or small.all():
            raise ParameterError(
                "threshold does not separate the flows into two classes"
            )
        return self.filter(small), self.filter(~small)

    def filter(self, mask: np.ndarray) -> "FlowSet":
        """Subset of flows selected by a boolean mask (keys included)."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.starts.shape:
            raise ParameterError("mask must match the number of flows")
        return FlowSet(
            self.starts[mask],
            self.ends[mask],
            self.sizes[mask],
            self.packet_counts[mask],
            key_kind=self.key_kind,
            keys=self.keys[mask],
            prefix_length=self.prefix_length,
            timeout=self.timeout,
            discarded_packets=self.discarded_packets,
        )
