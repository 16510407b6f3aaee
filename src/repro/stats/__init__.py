"""Measurement statistics: rate series, correlograms, qq-plots, EWMA."""

from .correlation import (
    autocorrelation,
    autocovariance_series,
    correlogram,
    cross_correlation,
)
from .estimators import EwmaEstimator, OnlineFlowStatistics
from .qq import ExponentialityReport, QQData, exponentiality, qq_exponential
from .timeseries import RateSeries

__all__ = [
    "RateSeries",
    "autocorrelation",
    "autocovariance_series",
    "correlogram",
    "cross_correlation",
    "QQData",
    "qq_exponential",
    "ExponentialityReport",
    "exponentiality",
    "EwmaEstimator",
    "OnlineFlowStatistics",
]
