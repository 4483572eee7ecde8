"""Integration tests: applications consuming estimated (not true) TCMs.

The apps' unit tests feed them clean matrices; these tests wire the
whole chain — simulate, estimate, consume — to catch contract drift
between the estimator's output and the application layer.
"""

import numpy as np
import pytest

from repro.apps import CongestionMonitor, TripPlannerService
from repro.core.online_anomaly import OnlineAnomalyMonitor
from repro.datasets.scenarios import rush_hour_incident
from repro.scale import ShardedEstimator, ShardedStreamingEstimator


@pytest.fixture(scope="module")
def estimated_world():
    dataset, incident, window = rush_hour_incident(seed=0)
    output = ShardedEstimator(
        dataset.network, partitioner="single", lam=10.0, seed=0
    ).estimate(dataset.measurements)
    return dataset, output, incident, window


class TestPlannerOnEstimates:
    def test_plans_on_estimated_tcm(self, estimated_world):
        dataset, output, incident, _ = estimated_world
        planner = TripPlannerService(dataset.network, output.estimate)
        nodes = [n.node_id for n in dataset.network.intersections()]
        plan = planner.plan(nodes[0], nodes[-1], depart_s=9 * 3600.0)
        assert plan is not None
        assert plan.travel_time_s > 0

    def test_incident_lengthens_planned_time(self, estimated_world):
        dataset, output, incident, (first, last) = estimated_world
        planner = TripPlannerService(dataset.network, output.estimate)
        seg = dataset.network.segment(incident.core_segment)
        slot_s = output.estimate.grid.slot_s
        during = planner.plan(seg.start, seg.end, depart_s=(first + 0.5) * slot_s)
        before = planner.plan(seg.start, seg.end, depart_s=(first - 8) * slot_s)
        assert during is not None and before is not None
        # The planner either takes longer or routes around; when it has
        # to traverse anyway, its time must reflect the jam.
        assert during.travel_time_s >= before.travel_time_s * 0.9


class TestMonitorOnEstimates:
    def test_peak_slot_near_incident_or_rush(self, estimated_world):
        dataset, output, _, (first, last) = estimated_world
        monitor = CongestionMonitor(dataset.network, output.estimate)
        peak = monitor.peak_slot()
        slots_per_day = int(86_400.0 / output.estimate.grid.slot_s)
        # Peak congestion lands in the day's second half (evening rush
        # plus the planted incident), not at 3 am.
        assert peak > slots_per_day * 0.3

    def test_incident_segment_ranks_high(self, estimated_world):
        dataset, output, incident, (first, last) = estimated_world
        monitor = CongestionMonitor(dataset.network, output.estimate)
        ranking = monitor.segment_ranking(slot_range=(first, last + 1))
        top_ids = ranking.segment_ids[:5]
        assert incident.core_segment in top_ids


class TestStreamingWithOnlineMonitor:
    def test_pipeline_runs_end_to_end(self, estimated_world):
        dataset, _, _, _ = estimated_world
        grid = dataset.ground_truth.grid
        streamer = ShardedStreamingEstimator(
            dataset.network,
            partitioner="single",
            slot_s=grid.slot_s,
            window_slots=12,
            seed=0,
        )
        monitor = OnlineAnomalyMonitor(
            dataset.network.segment_ids,
            slot_s=grid.slot_s,
            slots_per_day=int(86_400.0 / grid.slot_s),
            warmup_days=1,
        )
        for report in dataset.reports:
            for est in streamer.ingest(report):
                monitor.observe(est)
        streamer.flush()
        assert len(streamer.estimates) >= grid.num_slots - 1
