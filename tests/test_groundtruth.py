"""Tests for repro.traffic.groundtruth."""

import numpy as np
import pytest

from repro.core.tcm import TimeGrid, TrafficConditionMatrix
from repro.traffic.groundtruth import GroundTruthTraffic


class TestConstruction:
    def test_requires_complete_tcm(self, small_network):
        values = np.ones((4, small_network.num_segments)) * 30
        mask = np.ones_like(values, dtype=bool)
        mask[0, 0] = False
        tcm = TrafficConditionMatrix(
            values, mask, segment_ids=small_network.segment_ids
        )
        with pytest.raises(ValueError, match="complete"):
            GroundTruthTraffic(small_network, tcm)

    def test_requires_matching_ids(self, small_network):
        values = np.ones((4, 3)) * 30
        tcm = TrafficConditionMatrix(values, segment_ids=[0, 1, 2])
        with pytest.raises(ValueError, match="segment ids"):
            GroundTruthTraffic(small_network, tcm)

    def test_synthesize(self, small_network):
        grid = TimeGrid.over_days(0.5, 1800.0)
        truth = GroundTruthTraffic.synthesize(small_network, grid, seed=0)
        assert truth.grid == grid
        assert truth.tcm.is_complete


class TestSpeedLookup:
    def test_lookup_matches_matrix(self, ground_truth):
        grid = ground_truth.grid
        t = grid.start_s + 3.5 * grid.slot_s
        sid = ground_truth.network.segment_ids[5]
        expected = ground_truth.tcm.values[3, 5]
        assert ground_truth.speed_kmh(sid, t) == pytest.approx(expected)

    def test_clamps_before_start(self, ground_truth):
        sid = ground_truth.network.segment_ids[0]
        early = ground_truth.speed_kmh(sid, ground_truth.grid.start_s - 999.0)
        assert early == pytest.approx(ground_truth.tcm.values[0, 0])

    def test_clamps_after_end(self, ground_truth):
        sid = ground_truth.network.segment_ids[0]
        late = ground_truth.speed_kmh(sid, ground_truth.grid.end_s + 999.0)
        assert late == pytest.approx(ground_truth.tcm.values[-1, 0])

    def test_infinite_times_clamp(self, ground_truth):
        sid = ground_truth.network.segment_ids[0]
        values = ground_truth.tcm.values
        assert ground_truth.speed_kmh(sid, -float("inf")) == values[0, 0]
        assert ground_truth.speed_kmh(sid, float("inf")) == values[-1, 0]

    def test_nan_time_rejected(self, ground_truth):
        sid = ground_truth.network.segment_ids[0]
        with pytest.raises(ValueError, match="time_s must not be NaN"):
            ground_truth.speed_kmh(sid, float("nan"))

    def test_speeds_at_slot(self, ground_truth):
        row = ground_truth.speeds_at_slot(2)
        assert np.allclose(row, ground_truth.tcm.values[2])
        with pytest.raises(IndexError):
            ground_truth.speeds_at_slot(10_000)


class TestResample:
    def test_halves_slots(self, ground_truth):
        coarse = ground_truth.resample(3600.0)
        assert coarse.grid.slot_s == 3600.0
        assert coarse.grid.num_slots == ground_truth.grid.num_slots // 2

    def test_values_are_means(self, ground_truth):
        coarse = ground_truth.resample(3600.0)
        fine = ground_truth.tcm.values
        expected = (fine[0] + fine[1]) / 2
        assert np.allclose(coarse.tcm.values[0], expected)

    def test_identity_ratio(self, ground_truth):
        assert ground_truth.resample(ground_truth.grid.slot_s) is ground_truth

    def test_rejects_non_multiple(self, ground_truth):
        with pytest.raises(ValueError):
            ground_truth.resample(2500.0)

    def test_rejects_finer(self, ground_truth):
        with pytest.raises(ValueError):
            ground_truth.resample(900.0)

    def test_resample_preserves_mean(self, ground_truth):
        coarse = ground_truth.resample(3600.0)
        assert coarse.tcm.values.mean() == pytest.approx(
            ground_truth.tcm.values.mean(), rel=1e-9
        )
