"""Per-vehicle trajectory analytics.

The monitoring center often needs more than cell averages: individual
vehicle *trajectories* — consecutive report sequences — support quality
monitoring (reporting gaps, implausible jumps) and trip-level analyses
(the related work the paper cites splits route travel times from
consecutive probe timestamps).  This module segments a vehicle's report
stream into trajectories, derives travel statistics, and screens for
GPS artifacts.

Trajectory *boundary detection* runs columnar: one ``np.lexsort`` orders
the whole batch by (vehicle, time) and one vectorized comparison finds
every run break, so splitting a million-report stream costs two array
passes instead of a Python loop per report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.probes.report import ProbeReport, ReportBatch
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class Trajectory:
    """A maximal run of one vehicle's reports without a long gap."""

    vehicle_id: int
    reports: List[ProbeReport]

    def __post_init__(self) -> None:
        if not self.reports:
            raise ValueError("a trajectory needs at least one report")
        times = [r.time_s for r in self.reports]
        if times != sorted(times):
            raise ValueError("trajectory reports must be time-ordered")
        if any(r.vehicle_id != self.vehicle_id for r in self.reports):
            raise ValueError("trajectory mixes vehicles")

    @property
    def start_s(self) -> float:
        return self.reports[0].time_s

    @property
    def end_s(self) -> float:
        return self.reports[-1].time_s

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def num_reports(self) -> int:
        return len(self.reports)

    def _coords(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = len(self.reports)
        xs = np.fromiter((r.x for r in self.reports), np.float64, n)
        ys = np.fromiter((r.y for r in self.reports), np.float64, n)
        times = np.fromiter((r.time_s for r in self.reports), np.float64, n)
        return xs, ys, times

    def mean_speed_kmh(self) -> float:
        """Average reported GPS speed along the trajectory."""
        return float(np.mean([r.speed_kmh for r in self.reports]))

    def path_length_m(self) -> float:
        """Sum of straight-line hops between consecutive report positions.

        A lower bound on distance travelled (reports subsample the true
        path), adequate for gap screening and coarse trip statistics.
        """
        xs, ys, _ = self._coords()
        return float(np.hypot(np.diff(xs), np.diff(ys)).sum())

    def segments_visited(self) -> List[int]:
        """Distinct matched segment ids in first-visit order."""
        seen: Dict[int, None] = {}
        for r in self.reports:
            if r.segment_id >= 0 and r.segment_id not in seen:
                seen[r.segment_id] = None
        return list(seen)

    def implied_speeds_kmh(self) -> np.ndarray:
        """Hop speeds implied by consecutive positions and timestamps.

        Useful to cross-check reported GPS speeds: a hop speed wildly
        above the reported speeds indicates a position glitch.
        """
        xs, ys, times = self._coords()
        dt = np.diff(times)
        moving = dt > 0
        dist_m = np.hypot(np.diff(xs), np.diff(ys))[moving]
        return dist_m / dt[moving] * 3.6


def _run_boundaries(
    batch: ReportBatch, max_gap_s: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trajectory runs of a batch, columnar.

    Returns ``(order, starts, ends)``: ``order`` sorts the batch by
    (vehicle, time) — stable, so reports tied on both keys keep their
    arrival order — and ``order[starts[i]:ends[i]]`` indexes run ``i``'s
    reports.  Runs break where the vehicle changes or the gap between
    consecutive reports exceeds ``max_gap_s``.
    """
    order = np.lexsort((batch.times_s, batch.vehicle_ids))
    if order.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return order, empty, empty
    vehicles = batch.vehicle_ids[order]
    times = batch.times_s[order]
    new_run = np.empty(order.size, dtype=bool)
    new_run[0] = True
    new_run[1:] = (vehicles[1:] != vehicles[:-1]) | (
        (times[1:] - times[:-1]) > max_gap_s
    )
    starts = np.flatnonzero(new_run)
    ends = np.append(starts[1:], order.size)
    return order, starts, ends


def split_trajectories(batch: ReportBatch, max_gap_s: float = 600.0) -> List[Trajectory]:
    """Segment a report batch into per-vehicle trajectories.

    A gap longer than ``max_gap_s`` between consecutive reports of the
    same vehicle starts a new trajectory (the vehicle was off duty or
    out of coverage).  Trajectories are ordered by (vehicle id, start
    time).
    """
    check_positive(max_gap_s, "max_gap_s")
    order, starts, ends = _run_boundaries(batch, max_gap_s)
    reports = list(batch)
    vehicles = batch.vehicle_ids
    return [
        Trajectory(int(vehicles[order[s]]), [reports[i] for i in order[s:e]])
        for s, e in zip(starts, ends)
    ]


@dataclass(frozen=True)
class FleetQuality:
    """Fleet-level report-stream quality summary.

    Attributes
    ----------
    num_vehicles, num_reports, num_trajectories:
        Volume counters.
    median_interval_s:
        Median gap between a vehicle's consecutive reports.
    glitch_fraction:
        Fraction of hops whose implied speed exceeds ``max_speed_kmh``
        (position glitches / identity errors).
    """

    num_vehicles: int
    num_reports: int
    num_trajectories: int
    median_interval_s: float
    glitch_fraction: float


def fleet_quality(
    batch: ReportBatch,
    max_gap_s: float = 600.0,
    max_speed_kmh: float = 150.0,
) -> FleetQuality:
    """Screen a report stream for volume and GPS-quality statistics.

    No per-report tuple is materialized: runs, inter-report intervals,
    and implied hop speeds all come from the batch's column arrays.
    """
    order, starts, _ = _run_boundaries(batch, max_gap_s)
    if order.size == 0:
        return FleetQuality(0, 0, 0, 0.0, 0.0)
    times = batch.times_s[order]
    xs = batch.xs[order]
    ys = batch.ys[order]
    # A hop exists between consecutive reports of the same run, i.e.
    # everywhere except at a run start.
    in_run = np.ones(order.size, dtype=bool)
    in_run[starts] = False
    in_run = in_run[1:]
    dt = (times[1:] - times[:-1])[in_run]
    dist_m = np.hypot(xs[1:] - xs[:-1], ys[1:] - ys[:-1])[in_run]
    moving = dt > 0
    implied = dist_m[moving] / dt[moving] * 3.6
    hops = int(moving.sum())
    glitches = int(np.sum(implied > max_speed_kmh))
    return FleetQuality(
        num_vehicles=batch.num_vehicles,
        num_reports=len(batch),
        num_trajectories=int(starts.size),
        median_interval_s=float(np.median(dt)) if dt.size else 0.0,
        glitch_fraction=glitches / hops if hops else 0.0,
    )

