"""Tests for repro.datasets.scenarios."""

import numpy as np
import pytest

from repro.datasets.scenarios import (
    night_economy,
    rush_hour_incident,
    sensor_outage,
    sparse_outskirts,
)


class TestRushHourIncident:
    @pytest.fixture(scope="class")
    def scenario(self):
        return rush_hour_incident(seed=0)

    def test_incident_window_matches(self, scenario):
        dataset, incident, (first, last) = scenario
        slot_s = dataset.ground_truth.grid.slot_s
        assert incident.start_s == first * slot_s
        assert incident.end_s == (last + 1) * slot_s

    def test_incident_visible_in_truth(self, scenario):
        dataset, incident, (first, last) = scenario
        truth = dataset.truth_tcm
        col = truth.column_of(incident.core_segment)
        during = truth.values[first : last + 1, col].mean()
        before = truth.values[first - 6 : first - 2, col].mean()
        assert during < 0.5 * before

    def test_detector_finds_it(self, scenario):
        from repro.core.anomaly import ResidualAnomalyDetector, match_events

        dataset, _, window = scenario
        events = ResidualAnomalyDetector(rank=2, threshold_sigmas=3.0).detect(
            dataset.truth_tcm
        )
        recall, _ = match_events(events, [window], slot_tolerance=1)
        assert recall == 1.0


class TestSparseOutskirts:
    def test_heavy_coverage_skew(self):
        dataset = sparse_outskirts(seed=0)
        road_cov = dataset.measurements.road_integrity()
        # Extreme skew: many dark segments AND some saturated ones.
        assert np.mean(road_cov < 0.05) > 0.3
        assert road_cov.max() > 0.8


class TestSensorOutage:
    def test_window_dark(self):
        dataset = sensor_outage(seed=0)
        grid = dataset.ground_truth.grid
        lo = grid.slot_of(11 * 3600.0)
        hi = grid.slot_of(14 * 3600.0 - 1)
        slot_cov = dataset.measurements.slot_integrity()
        assert np.all(slot_cov[lo : hi + 1] == 0.0)
        # Outside the window, coverage exists.
        assert slot_cov[:lo].max() > 0.0

    def test_completion_bridges_outage(self):
        from repro.metrics import nmae
        from repro.scale import ShardedEstimator

        dataset = sensor_outage(seed=0)
        output = ShardedEstimator(
            dataset.network, partitioner="single", lam=10.0, seed=0
        ).estimate(dataset.measurements)
        grid = dataset.ground_truth.grid
        lo = grid.slot_of(11 * 3600.0)
        hi = grid.slot_of(14 * 3600.0 - 1)
        eval_mask = np.zeros(dataset.truth_tcm.shape, dtype=bool)
        eval_mask[lo : hi + 1] = True
        err = nmae(dataset.truth_tcm.values, output.estimate.values, eval_mask)
        assert err < 0.35

    def test_window_validated(self):
        with pytest.raises(ValueError):
            sensor_outage(outage_start_s=100.0, outage_end_s=100.0)


class TestNightEconomy:
    def test_night_busier_than_commute_morning(self):
        dataset = night_economy(seed=0)
        values = dataset.truth_tcm.values
        # City mean speed around 22:00 is depressed relative to 05:00.
        slot = lambda h: int(h * 3600.0 / dataset.ground_truth.grid.slot_s)
        night = values[slot(21) : slot(23)].mean()
        dawn = values[slot(4) : slot(5)].mean()
        assert night < dawn
