"""Probe data pipeline: reports, map matching, aggregation, integrity.

This is the "monitoring center" side of the paper's system: probe
vehicles send ``<id, location, speed, timestamp>`` updates (Section 2.1);
the center matches them to road segments, buckets them into time slots,
averages probe speeds per (slot, segment) cell into the measurement
matrix ``M`` with indicator ``B`` (Eq. 4), and quantifies the missing
data problem via integrity (Definition 4, Section 2.3).
"""

from repro.probes.report import ProbeReport, ReportBatch
from repro.probes.mapmatch import GridIndex, MapMatcher
from repro.probes.aggregation import aggregate_reports
from repro.probes.integrity import (
    IntegrityReport,
    empirical_cdf,
    integrity_summary,
)
from repro.probes.trajectory import (
    FleetQuality,
    Trajectory,
    fleet_quality,
    split_trajectories,
)
from repro.probes.privacy import (
    PrivacyImpact,
    PseudonymRotator,
    TripLineDeployment,
    privacy_impact,
)

__all__ = [
    "ProbeReport",
    "ReportBatch",
    "GridIndex",
    "MapMatcher",
    "aggregate_reports",
    "IntegrityReport",
    "empirical_cdf",
    "integrity_summary",
    "FleetQuality",
    "Trajectory",
    "fleet_quality",
    "split_trajectories",
    "PrivacyImpact",
    "PseudonymRotator",
    "TripLineDeployment",
    "privacy_impact",
]
