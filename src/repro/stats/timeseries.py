"""Measured rate time series — the Delta-averaged samples of section V-F.

A monitor reports the byte volume crossing the link in consecutive windows
of length ``Delta`` (the paper uses 200 ms, comparable to the average
round-trip time; SNMP uses 5 minutes).  :class:`RateSeries` bins a packet
trace into such windows and exposes the moments the validation compares
against the model: mean, variance, coefficient of variation, empirical
autocorrelation.
"""

from __future__ import annotations

import numpy as np

from .._util import as_1d_float_array, check_positive
from ..exceptions import ParameterError
from ..trace.packet import PACKET_DTYPE, PacketTrace

__all__ = ["RateSeries"]


class RateSeries:
    """Piecewise-constant rate measurements ``R_bar(k Delta)``.

    Attributes
    ----------
    values:
        Rate samples in bytes/second (bin byte count divided by ``delta``).
    delta:
        Averaging/sampling interval in seconds.
    start:
        Timestamp of the first bin's left edge.
    """

    def __init__(self, values, delta: float, start: float = 0.0) -> None:
        self.values = as_1d_float_array("values", values)
        self.delta = check_positive("delta", delta)
        self.start = float(start)

    @classmethod
    def from_packets(
        cls,
        packets,
        delta: float,
        *,
        duration: float | None = None,
    ) -> "RateSeries":
        """Bin a packet trace into Delta-averaged rate samples.

        Parameters
        ----------
        packets:
            A :class:`PacketTrace` or PACKET_DTYPE array.
        delta:
            Averaging interval (seconds).
        duration:
            Observation length; defaults to the trace duration.  Only
            *complete* bins are kept (a trailing partial window would bias
            the last sample).

        The paper excludes packets of discarded single-packet flows from
        the measured rate; ``MeasurementEngine().measure_trace(trace,
        delta=...)`` measures that filtered series in the same pass as
        the flows.
        """
        if isinstance(packets, PacketTrace):
            if duration is None:
                duration = packets.duration
            packets = packets.packets
        packets = np.asarray(packets)
        if packets.dtype != PACKET_DTYPE:
            raise ParameterError(f"expected PACKET_DTYPE, got {packets.dtype}")
        delta = check_positive("delta", delta)
        timestamps = packets["timestamp"]
        sizes = packets["size"].astype(np.float64)
        if duration is None:
            duration = float(timestamps.max()) if timestamps.size else delta
        n_bins = int(np.floor(duration / delta))
        if n_bins < 1:
            raise ParameterError(
                f"duration {duration} shorter than one bin of {delta}s"
            )
        bin_index = np.floor(timestamps / delta).astype(np.int64)
        in_range = (bin_index >= 0) & (bin_index < n_bins)
        volumes = np.bincount(
            bin_index[in_range], weights=sizes[in_range], minlength=n_bins
        )
        return cls(volumes / delta, delta)

    def __len__(self) -> int:
        return int(self.values.size)

    def __repr__(self) -> str:
        return (
            f"RateSeries(n={len(self)}, delta={self.delta:g}s, "
            f"mean={self.mean:.4g} B/s)"
        )

    @property
    def times(self) -> np.ndarray:
        """Left edge of each averaging window."""
        return self.start + self.delta * np.arange(len(self))

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1) of the rate samples."""
        if len(self) < 2:
            return 0.0
        return float(np.var(self.values, ddof=1))

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))

    @property
    def coefficient_of_variation(self) -> float:
        """std/mean — the measured quantity of Figures 9-13."""
        mean = self.mean
        if mean == 0.0:
            raise ParameterError("cannot compute CoV of an all-zero series")
        return self.std / mean

    def autocorrelation(self, max_lag: int) -> np.ndarray:
        """Empirical autocorrelation coefficients for lags ``1..max_lag``."""
        from .correlation import autocorrelation

        return autocorrelation(self.values, max_lag)

    def resample(self, factor: int) -> "RateSeries":
        """Aggregate ``factor`` consecutive bins into one (coarser Delta).

        Used to study the variance-vs-averaging-interval relation of
        section V-F without re-binning the trace.
        """
        factor = int(factor)
        if factor < 1:
            raise ParameterError("factor must be >= 1")
        n = (len(self) // factor) * factor
        if n == 0:
            raise ParameterError("series too short for this factor")
        coarse = self.values[:n].reshape(-1, factor).mean(axis=1)
        return RateSeries(coarse, self.delta * factor, self.start)

    def window(self, start_index: int, stop_index: int) -> "RateSeries":
        """Slice of the series (e.g. warm-up removal)."""
        if not 0 <= start_index < stop_index <= len(self):
            raise ParameterError("invalid window bounds")
        return RateSeries(
            self.values[start_index:stop_index],
            self.delta,
            self.start + start_index * self.delta,
        )
