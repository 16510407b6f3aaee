"""Section VII applications: dimensioning and anomaly detection.

Backbone-wide dimensioning from edge measurements plus routing lives in
:func:`repro.network.superpose_link_moments`.
"""

from .anomaly import AnomalyDetector, AnomalyEvent, inject_flood, inject_outage
from .dimensioning import (
    ProvisioningReport,
    SmoothingPoint,
    bandwidth_savings,
    provision_capacity,
    smoothing_curve,
    what_if,
)

__all__ = [
    "ProvisioningReport",
    "provision_capacity",
    "SmoothingPoint",
    "smoothing_curve",
    "bandwidth_savings",
    "what_if",
    "AnomalyDetector",
    "AnomalyEvent",
    "inject_flood",
    "inject_outage",
]
