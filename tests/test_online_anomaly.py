"""Tests for repro.core.online_anomaly."""

import numpy as np
import pytest

from repro.core.online_anomaly import OnlineAlert, OnlineAnomalyMonitor
from repro.core.streaming import SlotEstimate


def estimate(slot, speeds):
    return SlotEstimate(
        slot_start_s=slot * 900.0,
        speeds_kmh=np.asarray(speeds, dtype=float),
        observed_fraction=1.0,
    )


def feed_days(monitor, slots_per_day, days, base=40.0):
    """Feed steady traffic for several days."""
    for slot in range(slots_per_day * days):
        monitor.observe(estimate(slot, [base] * len(monitor.segment_ids)))


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"slots_per_day": 0},
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"threshold_sigmas": 0.0},
            {"warmup_days": -1},
        ],
    )
    def test_bad_params_rejected(self, kwargs):
        params = dict(segment_ids=[0, 1], slot_s=900.0, slots_per_day=4)
        params.update(kwargs)
        with pytest.raises(ValueError):
            OnlineAnomalyMonitor(**params)

    def test_speed_shape_checked(self):
        monitor = OnlineAnomalyMonitor([0, 1], slot_s=900.0, slots_per_day=4)
        with pytest.raises(ValueError):
            monitor.observe(estimate(0, [30.0]))


class TestDetection:
    def test_no_alerts_during_warmup(self):
        monitor = OnlineAnomalyMonitor([0, 1], slot_s=900.0, slots_per_day=4, warmup_days=1)
        alerts = monitor.observe(estimate(0, [40.0, 40.0]))
        assert alerts == []

    def test_steady_traffic_quiet(self):
        monitor = OnlineAnomalyMonitor([0, 1], slot_s=900.0, slots_per_day=4)
        feed_days(monitor, 4, days=5)
        assert monitor.alerts == []

    def test_sudden_slowdown_alerts(self):
        monitor = OnlineAnomalyMonitor([0, 1], slot_s=900.0, slots_per_day=4, threshold_sigmas=3.0)
        feed_days(monitor, 4, days=4, base=40.0)
        alerts = monitor.observe(estimate(16, [5.0, 40.0]))
        assert len(alerts) == 1
        assert alerts[0].segment_id == 0
        assert alerts[0].z_score > 3.0
        assert alerts[0].observed_kmh == 5.0

    def test_speedup_not_alerted(self):
        monitor = OnlineAnomalyMonitor([0], slot_s=900.0, slots_per_day=4, threshold_sigmas=3.0)
        feed_days(monitor, 4, days=4, base=40.0)
        assert monitor.observe(estimate(16, [80.0])) == []

    def test_seasonality_respected(self):
        """Slow rush-hour speeds are normal at rush hour, anomalous at night."""
        monitor = OnlineAnomalyMonitor([0], slot_s=900.0, slots_per_day=2, threshold_sigmas=3.0)
        # Slot-of-day 0: fast (night); slot-of-day 1: slow (rush).
        for day in range(5):
            monitor.observe(estimate(2 * day, [50.0]))
            monitor.observe(estimate(2 * day + 1, [15.0]))
        # Rush-hour 15 km/h: expected, no alert.
        assert monitor.observe(estimate(11, [15.0])) == []

    def test_observe_many(self):
        monitor = OnlineAnomalyMonitor([0], slot_s=900.0, slots_per_day=4, threshold_sigmas=3.0)
        feed_days(monitor, 4, days=4)
        alerts = monitor.observe_many(
            [estimate(16, [40.0]), estimate(17, [4.0])]
        )
        assert len(alerts) == 1

    def test_alerts_accumulate(self):
        monitor = OnlineAnomalyMonitor([0], slot_s=900.0, slots_per_day=4, threshold_sigmas=3.0)
        feed_days(monitor, 4, days=4)
        monitor.observe(estimate(16, [4.0]))
        assert len(monitor.alerts) == 1


class TestEdgeCases:
    def test_single_slot_update_initializes_quietly(self):
        # The very first observation of a slot-of-day bucket seeds the
        # EWMA (mean = observation) and must never alert.
        monitor = OnlineAnomalyMonitor([0, 1], slot_s=900.0, slots_per_day=4)
        alerts = monitor.observe(estimate(0, [3.0, 80.0]))
        assert alerts == []
        assert np.array_equal(monitor._mean[0], [3.0, 80.0])
        assert np.all(monitor._count[0] == 1)

    def test_empty_segment_list(self):
        # Degenerate but valid: nothing tracked, nothing alerted.
        monitor = OnlineAnomalyMonitor([], slot_s=900.0, slots_per_day=4)
        assert monitor.observe(estimate(0, [])) == []
        assert monitor.observe_many([estimate(1, []), estimate(2, [])]) == []

    def test_zero_variance_history_does_not_warn(self):
        # Identical observations drive the EWMA variance toward zero;
        # the 1e-6 floor must keep the z-score finite (RuntimeWarnings
        # are errors under this suite's filterwarnings).
        monitor = OnlineAnomalyMonitor(
            [0], slot_s=900.0, slots_per_day=1, threshold_sigmas=3.0
        )
        for slot in range(50):
            monitor.observe(estimate(slot, [40.0]))
        alerts = monitor.observe(estimate(50, [39.0]))
        assert all(np.isfinite(a.z_score) for a in alerts)

    def test_obs_counters_record_slots_and_alerts(self):
        from repro.obs import metrics as obs_metrics
        from repro.obs import trace as obs_trace

        obs_trace.reset()
        obs_metrics.reset()
        obs_trace.enable()
        try:
            monitor = OnlineAnomalyMonitor(
                [0], slot_s=900.0, slots_per_day=4, threshold_sigmas=3.0
            )
            feed_days(monitor, 4, days=4)
            monitor.observe(estimate(16, [4.0]))
            snap = obs_metrics.registry().snapshot()
            assert snap["counters"]["anomaly.slots_observed"] == 17.0
            assert snap["counters"]["anomaly.alerts"] == 1.0
        finally:
            obs_trace.disable()
            obs_trace.reset()
            obs_metrics.reset()


class TestEndToEnd:
    def test_with_streaming_estimator(self, ground_truth):
        """Monitor runs on top of the streaming estimator's output."""
        from repro.mobility.fleet import FleetConfig, FleetSimulator
        from repro.scale import ShardedStreamingEstimator

        reports = FleetSimulator(
            ground_truth, FleetConfig(num_vehicles=40), seed=0
        ).run()
        streamer = ShardedStreamingEstimator(
            ground_truth.network,
            partitioner="single",
            slot_s=ground_truth.grid.slot_s,
            window_slots=12,
            seed=0,
        )
        slots_per_day = int(86_400.0 / ground_truth.grid.slot_s)
        monitor = OnlineAnomalyMonitor(
            ground_truth.network.segment_ids,
            slot_s=ground_truth.grid.slot_s,
            slots_per_day=slots_per_day,
            threshold_sigmas=4.0,
        )
        for report in reports:
            for est in streamer.ingest(report):
                monitor.observe(est)
        # Normal traffic: few, ideally zero, alerts.
        assert len(monitor.alerts) < 20
