"""Tests for repro.core.streaming, driven as the whole-network stream.

The whole-network stream is ``ShardedStreamingEstimator`` with
``partitioner="single"``: one :class:`WindowCompleter` over every
column.  The sharded tests in ``test_scale_streaming.py`` cover late
and non-finite reports on every ingest path, counters included.
"""

import math

import numpy as np
import pytest

from repro.core.streaming import WindowCompleter
from repro.probes.aggregation import MAX_SPEED_KMH, MIN_SPEED_KMH
from repro.probes.report import ProbeReport
from repro.roadnet.generators import grid_city
from repro.scale import ShardedStreamingEstimator

#: Segment ids 0-7; the tests report on 0-2 and leave the rest silent.
NETWORK = grid_city(2, 2)


def report(t, seg, speed, vid=0):
    return ProbeReport(vehicle_id=vid, time_s=t, x=0.0, y=0.0, speed_kmh=speed, segment_id=seg)


def make_estimator(**overrides):
    params = dict(
        partitioner="single",
        slot_s=60.0,
        window_slots=6,
        rank=1,
        lam=1.0,
        cold_iterations=20,
        warm_iterations=5,
        seed=0,
    )
    params.update(overrides)
    return ShardedStreamingEstimator(NETWORK, **params)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"slot_s": 0.0},
            {"window_slots": 1},
            {"warm_iterations": 0},
            {"cold_iterations": 0},
        ],
    )
    def test_bad_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            make_estimator(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"start_s": float("nan")}, "start_s"),
            ({"start_s": float("inf")}, "start_s"),
            ({"start_s": -float("inf")}, "start_s"),
            ({"slot_s": float("inf")}, "slot_s"),
        ],
    )
    def test_non_finite_clock_rejected(self, kwargs, name):
        # A NaN start would bucket every report into slot INT64_MIN.
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            make_estimator(**kwargs)


class TestIngest:
    def test_no_estimate_until_slot_closes(self):
        est = make_estimator()
        assert est.ingest(report(10.0, 0, 30.0)) == []
        assert est.ingest(report(50.0, 1, 40.0)) == []

    def test_slot_closes_on_next_slot_report(self):
        est = make_estimator()
        est.ingest(report(10.0, 0, 30.0))
        closed = est.ingest(report(70.0, 1, 40.0))
        assert len(closed) == 1
        assert closed[0].slot_start_s == 0.0

    def test_gap_closes_multiple_slots(self):
        est = make_estimator()
        est.ingest(report(10.0, 0, 30.0))
        closed = est.ingest(report(200.0, 1, 40.0))
        assert len(closed) == 3  # slots 0, 1, 2 close

    def test_late_report_dropped(self):
        est = make_estimator()
        est.ingest(report(70.0, 0, 30.0))  # now in slot 1
        est.flush()  # close slot 1, current = 2
        assert est.ingest(report(10.0, 1, 99.0)) == []

    def test_observed_cells_published_verbatim(self):
        est = make_estimator()
        est.ingest(report(10.0, 0, 30.0))
        est.ingest(report(20.0, 0, 50.0))
        result = est.flush()
        assert result.speeds_kmh[0] == pytest.approx(40.0)

    def test_observed_fraction(self):
        est = make_estimator()
        est.ingest(report(10.0, 0, 30.0))
        est.ingest(report(20.0, 2, 30.0))
        result = est.flush()
        assert result.observed_fraction == pytest.approx(2 / 8)

    def test_idle_reports_filtered(self):
        est = make_estimator()
        est.ingest(report(10.0, 0, 0.5))
        result = est.flush()
        assert result.observed_fraction == 0.0

    @pytest.mark.parametrize(
        "speed, admitted",
        [
            (math.nextafter(MIN_SPEED_KMH, -math.inf), False),
            (MIN_SPEED_KMH, True),
            (MAX_SPEED_KMH, True),
            (math.nextafter(MAX_SPEED_KMH, math.inf), False),
        ],
        ids=["below floor", "at floor", "at cap", "above cap"],
    )
    def test_admission_bounds(self, speed, admitted):
        est = make_estimator()
        assert est.min_speed_kmh == MIN_SPEED_KMH
        est.ingest(report(10.0, 0, speed))
        result = est.flush()
        assert result.observed_fraction == (1 / 8 if admitted else 0.0)
        if admitted:
            assert result.speeds_kmh[0] == speed

    def test_unknown_segment_skipped(self):
        est = make_estimator()
        est.ingest(report(10.0, 99, 30.0))
        result = est.flush()
        assert result.observed_fraction == 0.0

    def test_ingest_many_sorts(self):
        est = make_estimator()
        closed = est.ingest_many(
            [report(130.0, 0, 30.0), report(10.0, 1, 40.0), report(70.0, 2, 50.0)]
        )
        assert len(closed) == 2


class TestEstimation:
    def test_missing_cells_estimated(self):
        est = make_estimator()
        # Feed several slots observing segments 0 and 1 at ~30 km/h.
        for k in range(5):
            t = k * 60.0
            est.ingest(report(t + 5, 0, 30.0))
            est.ingest(report(t + 10, 1, 30.0))
        result = est.flush()
        # Segment 2 never observed: the completion must still produce a
        # finite, plausible estimate.
        assert np.isfinite(result.speeds_kmh[2])

    def test_estimates_track_stream(self):
        est = make_estimator()
        for k in range(8):
            t = k * 60.0
            est.ingest(report(t + 5, 0, 40.0))
            est.ingest(report(t + 15, 1, 40.0))
            if k % 2 == 0:
                est.ingest(report(t + 25, 2, 40.0))
        est.flush()
        finals = est.estimates[-1].speeds_kmh
        assert np.all(np.abs(finals - 40.0) < 10.0)

    def test_window_slides(self):
        est = make_estimator(window_slots=3)
        for k in range(6):
            est.ingest(report(k * 60.0 + 5, 0, 30.0))
        est.flush()
        assert est._windows[0].filled == 3

    def test_estimates_accumulate(self):
        est = make_estimator()
        for k in range(4):
            est.ingest(report(k * 60.0 + 5, 0, 30.0))
        est.flush()
        assert len(est.estimates) == 4
        starts = [e.slot_start_s for e in est.estimates]
        assert starts == [0.0, 60.0, 120.0, 180.0]

    def test_warm_start_activates(self):
        est = make_estimator(window_slots=3)
        for k in range(8):
            est.ingest(report(k * 60.0 + 5, 0, 30.0))
            est.ingest(report(k * 60.0 + 15, 1, 35.0))
        est.flush()
        assert est._windows[0]._warm_left is not None
        assert est._windows[0]._warm_left.shape[0] == 3


class TestFullRank:
    def test_window_reaches_full_rank(self):
        # The first push cold-solves a one-row window at rank 1; that
        # factor must not pin the later warm solves below the rank.
        rng = np.random.default_rng(0)
        window = WindowCompleter(
            num_columns=6, window_slots=5, rank=2, lam=1.0, rng=0
        )
        for _ in range(8):
            mask = rng.random(6) < 0.7
            mask[0] = True
            window.push(rng.uniform(20.0, 60.0, 6), mask)
            assert window._warm_left.shape[1] == min(2, window.filled)


class TestEdgeCases:
    def test_empty_window_flush_publishes_zeros(self):
        # Closing a slot with no observations at all: the window mask is
        # entirely empty, so completion is skipped and zeros published.
        est = make_estimator()
        result = est.flush()
        assert result.observed_fraction == 0.0
        assert np.array_equal(result.speeds_kmh, np.zeros(8))
        assert est._windows[0].filled == 1
        assert not est._windows[0]._masks.any()

    def test_single_slot_update(self):
        # One observed slot (fewer rows than the window): the cold solve
        # runs on the 1-row window and publishes the observation verbatim
        # where measured, a finite non-negative estimate elsewhere.
        est = make_estimator()
        est.ingest(report(5.0, 0, 30.0))
        result = est.flush()
        assert result.slot_start_s == 0.0
        assert result.speeds_kmh[0] == pytest.approx(30.0)
        assert np.all(np.isfinite(result.speeds_kmh))
        assert np.all(result.speeds_kmh >= 0.0)
        assert est._windows[0]._warm_left is not None
        assert est._windows[0]._warm_left.shape[0] == 1

    def test_empty_slot_between_observed_slots(self):
        # A fully unobserved slot inside an observed stream still gets an
        # estimate rather than zeros: the previous completed row,
        # republished without a re-solve.
        est = make_estimator()
        for k in (0, 1, 3, 4):
            est.ingest(report(k * 60.0 + 5, 0, 30.0))
            est.ingest(report(k * 60.0 + 15, 1, 30.0))
        est.flush()
        gap = est.estimates[2]
        assert gap.observed_fraction == 0.0
        assert np.all(np.isfinite(gap.speeds_kmh))
        assert est.recompletions_skipped == 1
        completed = est.estimates[1].speeds_kmh
        assert np.array_equal(gap.speeds_kmh[2:], completed[2:])

    def test_obs_metrics_record_cold_and_warm_starts(self):
        from repro.obs import metrics as obs_metrics
        from repro.obs import trace as obs_trace

        obs_trace.reset()
        obs_metrics.reset()
        obs_trace.enable()
        try:
            est = make_estimator(window_slots=3)
            for k in range(6):
                est.ingest(report(k * 60.0 + 5, 0, 30.0))
            est.flush()
            snap = obs_metrics.registry().snapshot()
            assert snap["counters"]["stream.recompletions"] == 6.0
            assert snap["counters"]["stream.cold_starts"] >= 1.0
            assert snap["counters"]["stream.warm_starts"] >= 1.0
            names = {s.name for s in obs_trace.collector().snapshot()}
            assert "scale.close_slot" in names
        finally:
            obs_trace.disable()
            obs_trace.reset()
            obs_metrics.reset()

    def test_instrumentation_does_not_change_estimates(self):
        from repro.obs import metrics as obs_metrics
        from repro.obs import trace as obs_trace

        def run():
            est = make_estimator()
            for k in range(5):
                est.ingest(report(k * 60.0 + 5, 0, 30.0))
                est.ingest(report(k * 60.0 + 15, 1, 35.0))
            est.flush()
            return np.vstack([e.speeds_kmh for e in est.estimates])

        baseline = run()
        obs_trace.enable()
        try:
            traced = run()
        finally:
            obs_trace.disable()
            obs_trace.reset()
            obs_metrics.reset()
        assert np.array_equal(baseline, traced)
