"""Per-report reference implementations of the probe ingestion stages.

The columnar paths in :mod:`repro.probes` must answer exactly as these
do.  Each one walks the batch one :class:`~repro.probes.report.ProbeReport`
at a time in arrival order, which is slow but easy to read, so they
serve as test oracles only.
"""

from typing import Dict, List, Sequence

import numpy as np

from repro.core.tcm import TimeGrid, TrafficConditionMatrix
from repro.probes.aggregation import MAX_SPEED_KMH, MIN_SPEED_KMH
from repro.probes.mapmatch import MapMatcher
from repro.probes.report import ProbeReport, ReportBatch
from repro.probes.trajectory import FleetQuality, Trajectory
from repro.roadnet.geometry import Point


def match_batch_reference(matcher: MapMatcher, batch: ReportBatch) -> ReportBatch:
    """``MapMatcher.match_batch`` as one ``match_point`` call per report."""
    matched = [
        matcher.match_point(Point(r.x, r.y), heading=r.heading_deg) for r in batch
    ]
    return batch.with_matched_segments(matched)


def aggregate_reference(
    batch: ReportBatch,
    grid: TimeGrid,
    segment_ids: Sequence[int],
) -> TrafficConditionMatrix:
    """``aggregate_reports`` accumulated one report at a time."""
    col_of = {int(sid): j for j, sid in enumerate(segment_ids)}
    sums = np.zeros((grid.num_slots, len(col_of)))
    counts = np.zeros((grid.num_slots, len(col_of)), dtype=np.int64)
    for r in batch:
        slot = grid.slot_of(r.time_s)
        j = col_of.get(int(r.segment_id))
        if slot is None or j is None or r.segment_id < 0:
            continue
        if not MIN_SPEED_KMH <= r.speed_kmh <= MAX_SPEED_KMH:
            continue
        sums[slot, j] += r.speed_kmh
        counts[slot, j] += 1
    mask = counts >= 1
    values = np.zeros_like(sums)
    np.divide(sums, counts, out=values, where=mask)
    return TrafficConditionMatrix(values, mask, grid=grid, segment_ids=list(segment_ids))


def reports_per_cell_reference(
    batch: ReportBatch, grid: TimeGrid, segment_ids: Sequence[int]
) -> np.ndarray:
    """``reports_per_cell`` counted one report at a time."""
    col_of = {int(sid): j for j, sid in enumerate(segment_ids)}
    counts = np.zeros((grid.num_slots, len(col_of)), dtype=np.int64)
    for r in batch:
        if r.segment_id < 0:
            continue
        slot = grid.slot_of(r.time_s)
        j = col_of.get(int(r.segment_id))
        if slot is None or j is None:
            continue
        counts[slot, j] += 1
    return counts


def split_reference(batch: ReportBatch, max_gap_s: float = 600.0) -> List[Trajectory]:
    """``split_trajectories`` as a walk over each vehicle's reports.

    The batch iterates in time order, so each vehicle's list does too.
    """
    by_vehicle: Dict[int, List[ProbeReport]] = {}
    for report in batch:
        by_vehicle.setdefault(report.vehicle_id, []).append(report)
    trajectories: List[Trajectory] = []
    for vid in sorted(by_vehicle):
        run: List[ProbeReport] = []
        for report in by_vehicle[vid]:
            if run and report.time_s - run[-1].time_s > max_gap_s:
                trajectories.append(Trajectory(vid, run))
                run = []
            run.append(report)
        if run:
            trajectories.append(Trajectory(vid, run))
    return trajectories


def fleet_quality_reference(
    batch: ReportBatch, max_gap_s: float = 600.0, max_speed_kmh: float = 150.0
) -> FleetQuality:
    """``fleet_quality`` over materialized trajectories."""
    trajectories = split_reference(batch, max_gap_s)
    intervals: List[float] = []
    hops = 0
    glitches = 0
    for traj in trajectories:
        times = np.array([r.time_s for r in traj.reports])
        intervals.extend(np.diff(times))
        implied = traj.implied_speeds_kmh()
        hops += implied.size
        glitches += int(np.sum(implied > max_speed_kmh))
    return FleetQuality(
        num_vehicles=batch.num_vehicles,
        num_reports=len(batch),
        num_trajectories=len(trajectories),
        median_interval_s=float(np.median(intervals)) if intervals else 0.0,
        glitch_fraction=glitches / hops if hops else 0.0,
    )
