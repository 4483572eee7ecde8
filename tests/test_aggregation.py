"""Tests for repro.probes.aggregation."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.tcm import TimeGrid, TrafficConditionMatrix
from repro.probes.aggregation import (
    MAX_SPEED_KMH,
    MIN_SPEED_KMH,
    aggregate_reports,
    reports_per_cell,
)
from repro.probes.report import ProbeReport, ReportBatch
from tests.probe_oracles import aggregate_reference, reports_per_cell_reference


def grid3():
    return TimeGrid(start_s=0.0, slot_s=60.0, num_slots=3)


def report(t, seg, speed, vid=0):
    return ProbeReport(vehicle_id=vid, time_s=t, x=0.0, y=0.0, speed_kmh=speed, segment_id=seg)


#: Speeds at each admission bound and one step past it.
BOUNDS = {
    "below floor": (math.nextafter(MIN_SPEED_KMH, -math.inf), False),
    "at floor": (MIN_SPEED_KMH, True),
    "at cap": (MAX_SPEED_KMH, True),
    "above cap": (math.nextafter(MAX_SPEED_KMH, math.inf), False),
}


class TestAggregateReports:
    def test_averages_per_cell(self):
        batch = ReportBatch([report(10.0, 0, 20.0), report(20.0, 0, 40.0)])
        tcm = aggregate_reports(batch, grid3(), [0, 1])
        assert tcm.values[0, 0] == pytest.approx(30.0)
        assert tcm.mask[0, 0]

    def test_unvisited_cells_missing(self):
        batch = ReportBatch([report(10.0, 0, 20.0)])
        tcm = aggregate_reports(batch, grid3(), [0, 1])
        assert not tcm.mask[1, 0]
        assert not tcm.mask[0, 1]
        assert tcm.values[1, 0] == 0.0

    def test_slot_assignment(self):
        batch = ReportBatch([report(65.0, 1, 25.0)])
        tcm = aggregate_reports(batch, grid3(), [0, 1])
        assert tcm.mask[1, 1]
        assert not tcm.mask[0, 1]

    def test_idle_reports_filtered(self):
        batch = ReportBatch([report(10.0, 0, 0.5), report(20.0, 0, 30.0)])
        tcm = aggregate_reports(batch, grid3(), [0])
        assert tcm.values[0, 0] == pytest.approx(30.0)

    def test_glitch_speeds_filtered(self):
        batch = ReportBatch([report(10.0, 0, 500.0)])
        tcm = aggregate_reports(batch, grid3(), [0])
        assert not tcm.mask[0, 0]

    def test_unknown_segment_skipped(self):
        batch = ReportBatch([report(10.0, 99, 30.0), report(20.0, -1, 30.0)])
        tcm = aggregate_reports(batch, grid3(), [0, 1])
        assert tcm.integrity == 0.0

    def test_out_of_window_skipped(self):
        batch = ReportBatch([report(-10.0, 0, 30.0), report(500.0, 0, 30.0)])
        tcm = aggregate_reports(batch, grid3(), [0])
        assert tcm.integrity == 0.0

    def test_min_reports_per_cell(self):
        # One report observes its cell (Eq. 4); two are averaged.
        batch = ReportBatch([report(10.0, 0, 30.0), report(70.0, 0, 30.0), report(80.0, 0, 40.0)])
        tcm = aggregate_reports(batch, grid3(), [0])
        assert tcm.mask[0, 0] and tcm.values[0, 0] == 30.0
        assert tcm.mask[1, 0] and tcm.values[1, 0] == 35.0
        assert not tcm.mask[2, 0]

    @pytest.mark.parametrize("bound", sorted(BOUNDS))
    def test_admission_bounds(self, bound):
        speed, admitted = BOUNDS[bound]
        tcm = aggregate_reports(ReportBatch([report(10.0, 0, speed)]), grid3(), [0])
        assert tcm.mask[0, 0] == admitted
        assert tcm.values[0, 0] == (speed if admitted else 0.0)

    def test_empty_batch(self):
        tcm = aggregate_reports(ReportBatch([]), grid3(), [0, 1])
        assert tcm.integrity == 0.0
        assert tcm.shape == (3, 2)

    def test_duplicate_segment_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            aggregate_reports(ReportBatch([]), grid3(), [0, 0])

    def test_column_order_follows_segment_ids(self):
        batch = ReportBatch([report(10.0, 5, 30.0)])
        tcm = aggregate_reports(batch, grid3(), [7, 5])
        assert tcm.mask[0, 1]
        assert not tcm.mask[0, 0]

    def test_matches_ground_truth_speeds(self, ground_truth):
        """Aggregated probe speeds track the generating ground truth."""
        from repro.mobility.fleet import FleetConfig, FleetSimulator
        from repro.mobility.reporting import ReportingConfig

        config = FleetConfig(
            num_vehicles=40,
            reporting=ReportingConfig(speed_noise_kmh=0.0),
        )
        batch = FleetSimulator(ground_truth, config, seed=0).run()
        tcm = aggregate_reports(
            batch, ground_truth.grid, ground_truth.network.segment_ids
        )
        mask = tcm.mask
        assert tcm.integrity > 0.05
        truth_vals = ground_truth.tcm.values[mask]
        measured = tcm.values[mask]
        rel = np.abs(measured - truth_vals) / truth_vals
        # Driver factors add ~10 % per-vehicle spread; averages stay close.
        assert np.median(rel) < 0.15


class TestReportsPerCell:
    def test_counts(self):
        batch = ReportBatch(
            [report(10.0, 0, 30.0), report(20.0, 0, 0.1), report(70.0, 1, 30.0)]
        )
        counts = reports_per_cell(batch, grid3(), [0, 1])
        assert counts[0, 0] == 2  # no speed filter here
        assert counts[1, 1] == 1
        assert counts.sum() == 3


class TestMethodEquivalence:
    def _random_batch(self, n, seed):
        rng = np.random.default_rng(seed)
        times = rng.uniform(-30.0, 210.0, n)  # spills past both window edges
        segs = rng.choice([-1, 0, 1, 2, 5, 99], size=n)  # 5/99 unknown
        speeds = rng.uniform(-5.0, 200.0, n)  # some outside the speed band
        return ReportBatch(
            ProbeReport(
                vehicle_id=i % 4,
                time_s=float(times[i]),
                x=0.0,
                y=0.0,
                speed_kmh=float(speeds[i]),
                segment_id=int(segs[i]),
            )
            for i in range(n)
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bincount_matches_scalar(self, seed):
        batch = self._random_batch(500, seed)
        grid = grid3()
        ids = [0, 1, 2]
        fast = aggregate_reports(batch, grid, ids)
        slow = aggregate_reference(batch, grid, ids)
        np.testing.assert_array_equal(fast.mask, slow.mask)
        np.testing.assert_allclose(
            fast.values[fast.mask], slow.values[slow.mask], atol=1e-12
        )

    def test_bincount_matches_scalar_with_speed_filter(self):
        # Every speed sits at an admission bound or one step past it.
        rng = np.random.default_rng(3)
        speeds = [speed for speed, _ in BOUNDS.values()]
        batch = ReportBatch(
            report(float(t), int(seg), float(v), vid=i % 4)
            for i, (t, seg, v) in enumerate(
                zip(
                    rng.uniform(0.0, 180.0, 200),
                    rng.choice([0, 1, 2], size=200),
                    rng.choice(speeds, size=200),
                )
            )
        )
        grid = grid3()
        ids = [0, 1, 2]
        fast = aggregate_reports(batch, grid, ids)
        slow = aggregate_reference(batch, grid, ids)
        np.testing.assert_array_equal(fast.mask, slow.mask)
        np.testing.assert_array_equal(fast.values, slow.values)
        observed = fast.values[fast.mask]
        assert observed.size and observed.min() >= MIN_SPEED_KMH
        assert observed.max() <= MAX_SPEED_KMH

    def test_empty_cells_stay_empty_in_both(self):
        # Only segment 1 / slot 0 is visited; every other cell must be
        # missing under both implementations.
        batch = ReportBatch([report(10.0, 1, 40.0)])
        grid = grid3()
        for aggregate in (aggregate_reports, aggregate_reference):
            tcm = aggregate(batch, grid, [0, 1, 2])
            assert tcm.mask[0, 1]
            assert tcm.mask.sum() == 1

    def test_empty_batch_equivalent(self):
        grid = grid3()
        for aggregate in (aggregate_reports, aggregate_reference):
            tcm = aggregate(ReportBatch([]), grid, [0, 1])
            assert not tcm.mask.any()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_reports_per_cell_matches_scalar(self, seed):
        batch = self._random_batch(400, seed)
        grid = grid3()
        ids = [0, 1, 2]
        fast = reports_per_cell(batch, grid, ids)
        slow = reports_per_cell_reference(batch, grid, ids)
        np.testing.assert_array_equal(fast, slow)


#: One report: (time, segment id, speed).  The grid spans [0, 180) s;
#: segment -1 is unmatched and 5/99 are not columns; speeds run from
#: idle to overspeed, admission bounds and NaN included.
_REPORTS = st.lists(
    st.tuples(
        st.one_of(st.floats(-60.0, 240.0), st.just(float("nan"))),
        st.sampled_from([-1, 0, 1, 2, 3, 5, 99]),
        st.one_of(
            st.floats(-5.0, 200.0),
            st.sampled_from(
                [0.5, 500.0, float("nan")] + [speed for speed, _ in BOUNDS.values()]
            ),
        ),
    ),
    max_size=80,
)


class TestOracleProperty:
    """``aggregate_reports`` against the per-report oracle, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(rows=_REPORTS, ids=st.permutations([0, 1, 2, 3]))
    @example(rows=[], ids=[0, 1, 2, 3])
    def test_matches_reference(self, rows, ids):
        batch = ReportBatch(
            ProbeReport(
                vehicle_id=i % 3, time_s=t, x=0.0, y=0.0, speed_kmh=v, segment_id=seg
            )
            for i, (t, seg, v) in enumerate(rows)
        )
        grid = grid3()
        fast = aggregate_reports(batch, grid, ids)
        slow = aggregate_reference(batch, grid, ids)
        np.testing.assert_array_equal(fast.mask, slow.mask)
        np.testing.assert_array_equal(fast.values, slow.values)

        # The cells the aggregate was built from are the ones a densely
        # built TCM derives: same row-major order, same bits, read-only.
        dense = TrafficConditionMatrix(
            fast.values, fast.mask, grid=grid, segment_ids=ids
        )
        # A pickle carries no cell cache, as one written before the TCM
        # kept its cells; it still answers.
        restored = pickle.loads(pickle.dumps(fast))
        assert restored._cells is None
        for tcm in (dense, restored):
            for got, want in zip(fast.observed_cells, tcm.observed_cells):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
                assert not got.flags.writeable and not want.flags.writeable
