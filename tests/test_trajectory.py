"""Tests for repro.probes.trajectory."""

import numpy as np
import pytest

from repro.probes.report import ProbeReport, ReportBatch
from repro.probes.trajectory import (
    FleetQuality,
    Trajectory,
    fleet_quality,
    split_trajectories,
)
from tests.probe_oracles import fleet_quality_reference, split_reference


def report(vid, t, x=0.0, y=0.0, speed=30.0, seg=0):
    return ProbeReport(vehicle_id=vid, time_s=t, x=x, y=y, speed_kmh=speed, segment_id=seg)


class TestTrajectory:
    def test_requires_reports(self):
        with pytest.raises(ValueError):
            Trajectory(0, [])

    def test_requires_time_order(self):
        with pytest.raises(ValueError, match="ordered"):
            Trajectory(0, [report(0, 10.0), report(0, 5.0)])

    def test_requires_single_vehicle(self):
        with pytest.raises(ValueError, match="vehicles"):
            Trajectory(0, [report(0, 1.0), report(1, 2.0)])

    def test_duration(self):
        traj = Trajectory(0, [report(0, 10.0), report(0, 70.0)])
        assert traj.duration_s == 60.0
        assert traj.num_reports == 2

    def test_mean_speed(self):
        traj = Trajectory(0, [report(0, 0.0, speed=20.0), report(0, 1.0, speed=40.0)])
        assert traj.mean_speed_kmh() == 30.0

    def test_path_length(self):
        traj = Trajectory(
            0, [report(0, 0.0, x=0, y=0), report(0, 1.0, x=3, y=4), report(0, 2.0, x=3, y=4)]
        )
        assert traj.path_length_m() == pytest.approx(5.0)

    def test_segments_visited_dedup_ordered(self):
        traj = Trajectory(
            0,
            [
                report(0, 0.0, seg=5),
                report(0, 1.0, seg=5),
                report(0, 2.0, seg=-1),
                report(0, 3.0, seg=2),
                report(0, 4.0, seg=5),
            ],
        )
        assert traj.segments_visited() == [5, 2]

    def test_implied_speeds(self):
        traj = Trajectory(
            0, [report(0, 0.0, x=0.0), report(0, 10.0, x=100.0)]
        )
        assert traj.implied_speeds_kmh() == pytest.approx([36.0])


class TestSplitTrajectories:
    def test_gap_splits(self):
        reports = [report(0, 0.0), report(0, 60.0), report(0, 10_000.0)]
        trajectories = split_trajectories(ReportBatch(reports), max_gap_s=600.0)
        assert len(trajectories) == 2
        assert trajectories[0].num_reports == 2

    def test_multiple_vehicles_separate(self):
        reports = [report(0, 0.0), report(1, 1.0), report(0, 2.0)]
        trajectories = split_trajectories(ReportBatch(reports), max_gap_s=600.0)
        assert len(trajectories) == 2
        assert {t.vehicle_id for t in trajectories} == {0, 1}

    def test_empty_batch(self):
        assert split_trajectories(ReportBatch([])) == []

    def test_bad_gap_rejected(self):
        with pytest.raises(ValueError):
            split_trajectories(ReportBatch([]), max_gap_s=0.0)

    def test_on_simulated_fleet(self, ground_truth):
        from repro.mobility.fleet import FleetConfig, FleetSimulator

        batch = FleetSimulator(ground_truth, FleetConfig(num_vehicles=5), seed=0).run(
            0.0, 4 * 3600.0
        )
        trajectories = split_trajectories(batch, max_gap_s=900.0)
        assert trajectories
        covered = sum(t.num_reports for t in trajectories)
        assert covered == len(batch)


class TestFleetQuality:
    def test_empty(self):
        q = fleet_quality(ReportBatch([]))
        assert q.num_reports == 0
        assert q.median_interval_s == 0.0

    def test_glitch_detection(self):
        # Second hop teleports 10 km in 1 s -> implied 36,000 km/h.
        reports = [
            report(0, 0.0, x=0.0),
            report(0, 60.0, x=500.0),
            report(0, 61.0, x=10_500.0),
        ]
        q = fleet_quality(ReportBatch(reports))
        assert q.glitch_fraction == pytest.approx(0.5)

    def test_median_interval(self):
        reports = [report(0, t) for t in (0.0, 60.0, 120.0, 180.0)]
        q = fleet_quality(ReportBatch(reports))
        assert q.median_interval_s == 60.0

    def test_simulated_fleet_clean(self, ground_truth):
        from repro.mobility.fleet import FleetConfig, FleetSimulator

        batch = FleetSimulator(ground_truth, FleetConfig(num_vehicles=8), seed=1).run(
            0.0, 4 * 3600.0
        )
        q = fleet_quality(batch)
        assert q.num_vehicles >= 6
        assert q.glitch_fraction < 0.05
        lo, hi = 30.0, 400.0  # reporting interval range plus jitter
        assert lo <= q.median_interval_s <= hi


class TestMethodEquivalence:
    def _random_batch(self, n, seed):
        rng = np.random.default_rng(seed)
        vids = rng.integers(0, 6, n)
        times = rng.uniform(0.0, 4_000.0, n)  # gaps > 600 s are common
        xs = rng.uniform(0.0, 1_000.0, n)
        ys = rng.uniform(0.0, 1_000.0, n)
        speeds = rng.uniform(0.0, 80.0, n)
        return ReportBatch(
            ProbeReport(
                vehicle_id=int(vids[i]),
                time_s=float(times[i]),
                x=float(xs[i]),
                y=float(ys[i]),
                speed_kmh=float(speeds[i]),
                segment_id=i % 3,
            )
            for i in range(n)
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_split_matches_scalar(self, seed):
        batch = self._random_batch(300, seed)
        fast = split_trajectories(batch, max_gap_s=600.0)
        slow = split_reference(batch, max_gap_s=600.0)
        assert len(fast) == len(slow)
        for a, b in zip(fast, slow):
            assert a.vehicle_id == b.vehicle_id
            assert a.reports == b.reports

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fleet_quality_matches_scalar(self, seed):
        batch = self._random_batch(300, seed)
        fast = fleet_quality(batch)
        slow = fleet_quality_reference(batch)
        assert fast.num_vehicles == slow.num_vehicles
        assert fast.num_reports == slow.num_reports
        assert fast.num_trajectories == slow.num_trajectories
        assert fast.median_interval_s == pytest.approx(slow.median_interval_s)
        assert fast.glitch_fraction == pytest.approx(slow.glitch_fraction)

    def test_empty_batch_equivalent(self):
        for split, quality_of in (
            (split_trajectories, fleet_quality),
            (split_reference, fleet_quality_reference),
        ):
            assert split(ReportBatch([])) == []
            assert quality_of(ReportBatch([])).num_reports == 0
