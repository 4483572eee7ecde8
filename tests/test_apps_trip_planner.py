"""Tests for repro.apps.trip_planner."""

import numpy as np
import pytest

from repro.apps.trip_planner import TripPlannerService
from repro.core.tcm import TimeGrid, TrafficConditionMatrix


def uniform_tcm(network, speed=36.0, num_slots=8, slot_s=1800.0):
    grid = TimeGrid(start_s=0.0, slot_s=slot_s, num_slots=num_slots)
    values = np.full((num_slots, network.num_segments), speed)
    return TrafficConditionMatrix(values, grid=grid, segment_ids=network.segment_ids)


class TestPlan:
    def test_same_node_trivial(self, small_network):
        planner = TripPlannerService(small_network, uniform_tcm(small_network))
        plan = planner.plan(3, 3, depart_s=0.0)
        assert plan.travel_time_s == 0.0
        assert plan.segment_ids == []

    def test_route_is_connected(self, small_network):
        planner = TripPlannerService(small_network, uniform_tcm(small_network))
        plan = planner.plan(0, 15, depart_s=0.0)
        assert plan is not None
        first = small_network.segment(plan.segment_ids[0])
        last = small_network.segment(plan.segment_ids[-1])
        assert first.start == 0
        assert last.end == 15
        for a, b in zip(plan.segment_ids[:-1], plan.segment_ids[1:]):
            assert small_network.segment(a).end == small_network.segment(b).start

    def test_uniform_speed_matches_shortest_path(self, small_network):
        """With uniform speeds, the fastest route is the shortest route."""
        planner = TripPlannerService(small_network, uniform_tcm(small_network))
        plan = planner.plan(0, 15, depart_s=0.0)
        shortest = small_network.shortest_path_segments(0, 15)
        plan_len = sum(small_network.segment(s).length_m for s in plan.segment_ids)
        shortest_len = sum(s.length_m for s in shortest)
        assert plan_len == pytest.approx(shortest_len, rel=1e-6)

    def test_avoids_congested_corridor(self, small_network):
        """Congestion on one corridor diverts the fastest route."""
        tcm_vals = np.full((8, small_network.num_segments), 36.0)
        # Jam every segment leaving node 0's straight-line corridor: pick
        # the direct segment from 0 and make it crawl.
        direct = small_network.outgoing_segments(0)[0]
        col = small_network.segment_ids.index(direct.segment_id)
        tcm_vals[:, col] = 3.0
        grid = TimeGrid(start_s=0.0, slot_s=1800.0, num_slots=8)
        tcm = TrafficConditionMatrix(
            tcm_vals, grid=grid, segment_ids=small_network.segment_ids
        )
        planner = TripPlannerService(small_network, tcm)
        plan = planner.plan(0, direct.end, depart_s=0.0)
        # Going around (3 links at 36 km/h) beats the direct crawl.
        assert plan.segment_ids != [direct.segment_id]

    def test_arrival_consistent_with_travel_time(self, small_network):
        planner = TripPlannerService(small_network, uniform_tcm(small_network))
        plan = planner.plan(0, 12, depart_s=500.0)
        assert plan.arrive_s == pytest.approx(500.0 + plan.travel_time_s)

    def test_uncovered_segments_unusable(self, small_network):
        # TCM covering only one segment: most destinations unreachable.
        sid = small_network.segment_ids[0]
        tcm = TrafficConditionMatrix(
            np.full((4, 1), 30.0),
            grid=TimeGrid(0.0, 1800.0, 4),
            segment_ids=[sid],
        )
        planner = TripPlannerService(small_network, tcm)
        seg = small_network.segment(sid)
        plan = planner.plan(seg.start, seg.end, depart_s=0.0)
        assert plan is not None
        far = [n.node_id for n in small_network.intersections() if n.node_id not in (seg.start, seg.end)][0]
        assert planner.plan(seg.start, far, depart_s=0.0) is None


class TestHostileInput:
    def test_unknown_origin(self, small_network):
        planner = TripPlannerService(small_network, uniform_tcm(small_network))
        with pytest.raises(KeyError, match="intersection 999"):
            planner.plan(999, 15, depart_s=0.0)

    def test_unknown_destination(self, small_network):
        planner = TripPlannerService(small_network, uniform_tcm(small_network))
        with pytest.raises(KeyError, match="intersection -1"):
            planner.plan(0, -1, depart_s=0.0)

    def test_unknown_node_to_itself(self, small_network):
        planner = TripPlannerService(small_network, uniform_tcm(small_network))
        with pytest.raises(KeyError):
            planner.plan(999, 999, depart_s=0.0)

    @pytest.mark.parametrize("depart_s", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_departure(self, small_network, depart_s):
        planner = TripPlannerService(small_network, uniform_tcm(small_network))
        with pytest.raises(ValueError, match="depart_s must be finite"):
            planner.plan(0, 15, depart_s=depart_s)
        with pytest.raises(ValueError, match="depart_s must be finite"):
            planner.plan(3, 3, depart_s=depart_s)


class TestCompareDepartures:
    def test_plans_for_each_time(self, small_network):
        planner = TripPlannerService(small_network, uniform_tcm(small_network))
        plans = planner.compare_departures(0, 15, [0.0, 1800.0, 3600.0])
        assert len(plans) == 3
        assert [p.depart_s for p in plans] == [0.0, 1800.0, 3600.0]

    def test_on_estimated_traffic(self, small_network, truth_tcm):
        """Planning works on a realistic (synthesized) TCM."""
        planner = TripPlannerService(small_network, truth_tcm)
        plans = planner.compare_departures(0, 15, [3 * 3600.0, 8 * 3600.0 + 1800.0])
        assert len(plans) == 2
        assert all(p.travel_time_s > 0 for p in plans)
