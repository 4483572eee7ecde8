"""Tests for repro.apps.travel_time."""

import numpy as np
import pytest

from repro.apps.travel_time import MIN_LINK_SPEED_KMH, TravelTimeService
from repro.core.tcm import TimeGrid, TrafficConditionMatrix


@pytest.fixture()
def service(small_network):
    grid = TimeGrid(start_s=0.0, slot_s=3600.0, num_slots=4)
    # Constant 36 km/h in slot 0, halving each slot on segment 0.
    n = small_network.num_segments
    values = np.full((4, n), 36.0)
    values[1, 0] = 18.0
    values[2, 0] = 9.0
    tcm = TrafficConditionMatrix(
        values, grid=grid, segment_ids=small_network.segment_ids
    )
    return TravelTimeService(small_network, tcm)


class TestValidation:
    def test_requires_complete(self, small_network, masked_tcm):
        with pytest.raises(ValueError, match="complete"):
            TravelTimeService(small_network, masked_tcm)

    def test_segments_must_exist(self, small_network):
        tcm = TrafficConditionMatrix(np.full((2, 1), 30.0), segment_ids=[9999])
        with pytest.raises(ValueError, match="not in network"):
            TravelTimeService(small_network, tcm)


class TestLinkTimes:
    def test_speed_lookup(self, service):
        assert service.speed_kmh(0, 100.0) == 36.0
        assert service.speed_kmh(0, 3700.0) == 18.0

    def test_clamps_outside_grid(self, service):
        assert service.speed_kmh(0, -50.0) == 36.0
        assert service.speed_kmh(0, 10 * 3600.0) == 36.0  # last slot value

    def test_link_time(self, service, small_network):
        seg = small_network.segment(0)
        expected = seg.length_m / 10.0  # 36 km/h = 10 m/s
        assert service.link_time_s(0, 0.0) == pytest.approx(expected)

    def test_min_speed_floor(self, small_network):
        n = small_network.num_segments
        tcm = TrafficConditionMatrix(
            np.zeros((2, n)), segment_ids=small_network.segment_ids
        )
        service = TravelTimeService(small_network, tcm)
        assert np.isfinite(service.link_time_s(0, 0.0))


class TestHostileInput:
    @pytest.mark.parametrize("time_s", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_speed_lookup(self, service, time_s):
        with pytest.raises(ValueError, match="time_s must be finite"):
            service.speed_kmh(0, time_s)
        with pytest.raises(ValueError, match="time_s must be finite"):
            service.link_time_s(0, time_s)

    @pytest.mark.parametrize("depart_s", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_route_departure(self, service, depart_s):
        with pytest.raises(ValueError, match="depart_s must be finite"):
            service.route_time_s([0, 1], depart_s)
        with pytest.raises(ValueError, match="depart_s must be finite"):
            service.route_time_s([], depart_s)

    def test_unknown_segment(self, service):
        with pytest.raises(KeyError):
            service.route_time_s([9999], 0.0)


class TestLinkTimeMatrix:
    def test_bit_equal_to_link_time(self, service, small_network):
        times = service.link_time_matrix()
        grid = service.tcm.grid
        assert times.shape == service.tcm.shape
        for slot in range(grid.num_slots):
            t = grid.slot_start(slot)
            for j, sid in enumerate(service.tcm.segment_ids):
                assert times[slot, j] == service.link_time_s(sid, t)

    def test_speed_floor_applies(self, small_network):
        n = small_network.num_segments
        tcm = TrafficConditionMatrix(np.zeros((2, n)), segment_ids=small_network.segment_ids)
        service = TravelTimeService(small_network, tcm)
        assert service.speed_kmh(0, 0.0) == MIN_LINK_SPEED_KMH == 3.0
        assert np.all(np.isfinite(service.link_time_matrix()))


class TestRouteTimes:
    def test_single_link_route(self, service, small_network):
        t = service.route_time_s([0], depart_s=0.0)
        assert t == pytest.approx(service.link_time_s(0, 0.0))

    def test_time_expansion(self, service, small_network):
        """A later departure on a slowing link takes longer."""
        early = service.route_time_s([0], depart_s=0.0)
        late = service.route_time_s([0], depart_s=2 * 3600.0 + 10)
        assert late > early

    def test_route_profile(self, service):
        profile = service.route_time_profile([0], [0.0, 3700.0, 7300.0])
        assert profile[0] < profile[1] < profile[2]

    def test_best_departure(self, service):
        depart, travel = service.best_departure(
            [0], window_start_s=0.0, window_end_s=4 * 3600.0, step_s=3600.0
        )
        # Slot 0 (or the equal-speed slot 3) is fastest; never slot 1/2.
        assert depart in (0.0, 3 * 3600.0)
        assert travel == pytest.approx(service.route_time_s([0], depart))

    def test_best_departure_empty_window(self, service):
        with pytest.raises(ValueError):
            service.best_departure([0], 100.0, 100.0)

    def test_multi_link_route(self, service, small_network):
        route = small_network.shortest_path_segments(0, 5)
        sids = [s.segment_id for s in route]
        t = service.route_time_s(sids, depart_s=0.0)
        total_len = sum(s.length_m for s in route)
        assert t == pytest.approx(total_len / 10.0, rel=0.01)
