"""Tests for repro.core.tcm."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.tcm import TimeGrid, TrafficConditionMatrix


class TestTimeGrid:
    def test_end_and_duration(self):
        grid = TimeGrid(start_s=100.0, slot_s=60.0, num_slots=10)
        assert grid.end_s == 700.0
        assert grid.duration_s == 600.0

    def test_slot_of(self):
        grid = TimeGrid(start_s=0.0, slot_s=60.0, num_slots=3)
        assert grid.slot_of(0.0) == 0
        assert grid.slot_of(59.999) == 0
        assert grid.slot_of(60.0) == 1
        assert grid.slot_of(179.9) == 2

    def test_slot_of_outside(self):
        grid = TimeGrid(start_s=0.0, slot_s=60.0, num_slots=3)
        assert grid.slot_of(-0.1) is None
        assert grid.slot_of(180.0) is None

    @pytest.mark.parametrize("time_s", [float("nan"), float("inf"), -float("inf")])
    def test_slot_of_non_finite_is_outside(self, time_s):
        grid = TimeGrid(start_s=0.0, slot_s=60.0, num_slots=3)
        assert grid.slot_of(time_s) is None

    def test_slot_start(self):
        grid = TimeGrid(start_s=10.0, slot_s=5.0, num_slots=4)
        assert grid.slot_start(2) == 20.0
        with pytest.raises(IndexError):
            grid.slot_start(4)

    def test_slot_centers(self):
        grid = TimeGrid(start_s=0.0, slot_s=10.0, num_slots=2)
        assert np.allclose(grid.slot_centers(), [5.0, 15.0])

    def test_over_days(self):
        grid = TimeGrid.over_days(1.0, 900.0)
        assert grid.num_slots == 96

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 0.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 60.0, 0)

    @pytest.mark.parametrize(
        "start_s, slot_s, name",
        [
            (float("nan"), 900.0, "start_s"),
            (float("inf"), 900.0, "start_s"),
            (-float("inf"), 900.0, "start_s"),
            (0.0, float("inf"), "slot_s"),
        ],
    )
    def test_rejects_non_finite_clock(self, start_s, slot_s, name):
        # Such a grid's slot centres would be NaN or infinite.
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TimeGrid(start_s, slot_s, 4)

    @given(st.floats(1.0, 1e5), st.integers(1, 500))
    def test_slot_of_consistent(self, slot_s, num_slots):
        grid = TimeGrid(start_s=0.0, slot_s=slot_s, num_slots=num_slots)
        for frac in (0.0, 0.5, 0.999):
            t = grid.duration_s * frac
            slot = grid.slot_of(t)
            assert slot is not None
            # Tolerances absorb float rounding at slot boundaries.
            eps = grid.duration_s * 1e-12 + 1e-9
            assert grid.slot_start(slot) <= t + eps
            assert t < grid.slot_start(slot) + slot_s + eps


def make_tcm(values=None, mask=None):
    if values is None:
        values = np.arange(12, dtype=float).reshape(3, 4) + 1.0
    return TrafficConditionMatrix(values, mask)


class TestTrafficConditionMatrix:
    def test_shape_properties(self):
        tcm = make_tcm()
        assert tcm.shape == (3, 4)
        assert tcm.num_slots == 3
        assert tcm.num_segments == 4

    def test_full_mask_by_default(self):
        assert make_tcm().is_complete

    def test_unobserved_cells_zeroed(self):
        values = np.full((2, 2), 9.0)
        mask = np.array([[True, False], [False, True]])
        tcm = TrafficConditionMatrix(values, mask)
        assert tcm.values[0, 1] == 0.0
        assert tcm.values[0, 0] == 9.0

    def test_integrity(self):
        mask = np.array([[True, False], [False, True]])
        tcm = TrafficConditionMatrix(np.ones((2, 2)), mask)
        assert tcm.integrity == pytest.approx(0.5)

    def test_road_and_slot_integrity(self):
        mask = np.array([[True, False], [True, True]])
        tcm = TrafficConditionMatrix(np.ones((2, 2)), mask)
        assert np.allclose(tcm.road_integrity(), [1.0, 0.5])
        assert np.allclose(tcm.slot_integrity(), [0.5, 1.0])

    def test_grid_length_checked(self):
        grid = TimeGrid(0.0, 60.0, 5)
        with pytest.raises(ValueError, match="slots"):
            TrafficConditionMatrix(np.ones((3, 4)), grid=grid)

    def test_segment_ids_checked(self):
        with pytest.raises(ValueError):
            TrafficConditionMatrix(np.ones((2, 3)), segment_ids=[1, 2])
        with pytest.raises(ValueError, match="unique"):
            TrafficConditionMatrix(np.ones((2, 3)), segment_ids=[1, 1, 2])

    def test_column_of(self):
        tcm = TrafficConditionMatrix(np.ones((2, 3)), segment_ids=[10, 20, 30])
        assert tcm.column_of(20) == 1
        with pytest.raises(KeyError):
            tcm.column_of(99)

    def test_series_nans_unobserved(self):
        mask = np.array([[True], [False], [True]])
        tcm = TrafficConditionMatrix(np.full((3, 1), 5.0), mask, segment_ids=[7])
        series = tcm.series(7)
        assert series[0] == 5.0
        assert np.isnan(series[1])

    def test_with_mask_from_complete(self):
        tcm = make_tcm()
        sub = tcm.with_mask(np.zeros((3, 4), dtype=bool))
        assert sub.integrity == 0.0

    def test_with_mask_rejects_superset(self):
        mask = np.zeros((3, 4), dtype=bool)
        mask[0, 0] = True
        partial = make_tcm(mask=mask)
        bigger = np.ones((3, 4), dtype=bool)
        with pytest.raises(ValueError, match="missing"):
            partial.with_mask(bigger)

    def test_with_mask_shape_checked(self):
        with pytest.raises(ValueError):
            make_tcm().with_mask(np.ones((2, 2), dtype=bool))

    def test_select_segments(self):
        tcm = TrafficConditionMatrix(
            np.arange(6, dtype=float).reshape(2, 3), segment_ids=[5, 6, 7]
        )
        sub = tcm.select_segments([7, 5])
        assert sub.segment_ids == [7, 5]
        assert np.allclose(sub.values[:, 0], tcm.values[:, 2])

    def test_select_slots(self):
        tcm = make_tcm()
        sub = tcm.select_slots(1, 3)
        assert sub.num_slots == 2
        assert sub.grid.start_s == tcm.grid.slot_start(1)
        assert np.allclose(sub.values, tcm.values[1:3])

    def test_select_slots_bounds(self):
        with pytest.raises(ValueError):
            make_tcm().select_slots(2, 2)
        with pytest.raises(ValueError):
            make_tcm().select_slots(0, 99)

    def test_observed_values(self):
        mask = np.array([[True, False], [False, True]])
        tcm = TrafficConditionMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]), mask)
        assert sorted(tcm.observed_values()) == [1.0, 4.0]

    def test_values_are_copies(self):
        tcm = make_tcm()
        tcm.values[0, 0] = -99
        assert tcm.values[0, 0] != -99

    def test_fully_observed_constructor_copies(self):
        values = np.arange(12.0).reshape(3, 4)
        tcm = TrafficConditionMatrix(values)
        assert not np.shares_memory(values, tcm.values_view)
        assert values.flags.writeable
        values[0, 0] = -99.0
        assert tcm.values[0, 0] == 0.0


class TestObservedCells:
    """``from_cells`` and the read-only ``observed_cells`` accessor."""

    @staticmethod
    def pair():
        mask = np.array([[True, False, True], [False, False, True]])
        values = np.where(mask, np.array([[1.0, 9.0, 0.0], [9.0, 9.0, 6.5]]), 0.0)
        return values, mask

    def test_from_cells_matches_dense(self):
        values, mask = self.pair()
        dense = TrafficConditionMatrix(values, mask, segment_ids=[4, 5, 6])
        cells = TrafficConditionMatrix.from_cells(
            (2, 3), [0, 2, 5], [1.0, 0.0, 6.5], segment_ids=[4, 5, 6]
        )
        assert cells.values.tobytes() == dense.values.tobytes()
        assert np.array_equal(cells.mask, dense.mask)
        assert cells.segment_ids == dense.segment_ids
        for got, want in zip(cells.observed_cells, dense.observed_cells):
            assert got.tobytes() == want.tobytes()
        # An observed cell whose value is 0 stays observed.
        assert cells.mask[0, 2]

    def test_accessor_is_read_only_and_owned(self):
        flat, vals = np.array([1, 4]), np.array([3.0, 4.0])
        tcm = TrafficConditionMatrix.from_cells((2, 3), flat, vals)
        flat[0], vals[0] = 0, -1.0
        got_flat, got_vals = tcm.observed_cells
        assert got_flat.tolist() == [1, 4] and got_vals.tolist() == [3.0, 4.0]
        for arr in tcm.observed_cells:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_computed_on_first_request(self):
        values, mask = self.pair()
        tcm = TrafficConditionMatrix(values, mask)
        assert tcm._cells is None
        flat, vals = tcm.observed_cells
        assert flat.tolist() == [0, 2, 5]
        assert vals.tolist() == [1.0, 0.0, 6.5]
        assert not flat.flags.writeable and not vals.flags.writeable
        assert tcm.observed_cells is tcm.observed_cells

    def test_fully_observed_computes_nothing_unasked(self):
        tcm = make_tcm()
        assert tcm.is_complete and tcm.values_view.shape == (3, 4)
        assert tcm._cells is None
        assert tcm.observed_cells[0].tolist() == list(range(12))

    def test_pickle_leaves_the_cache_out(self):
        import pickle

        tcm = TrafficConditionMatrix.from_cells((2, 3), [1, 4], [3.0, 4.0])
        back = pickle.loads(pickle.dumps(tcm))
        assert "_cells" not in back.__dict__
        flat, vals = back.observed_cells
        assert flat.tolist() == [1, 4] and vals.tolist() == [3.0, 4.0]
        assert not flat.flags.writeable and not vals.flags.writeable

    @pytest.mark.parametrize(
        "shape, flat, vals, match",
        [
            ((2, 3), [0, 0], [1.0, 2.0], "ascend"),
            ((2, 3), [2, 1], [1.0, 2.0], "ascend"),
            ((2, 3), [-1], [1.0], "ascend"),
            ((2, 3), [6], [1.0], "ascend"),
            ((2, 3), [1], [np.nan], "finite"),
            ((2, 3), [1], [np.inf], "finite"),
            ((2, 3), [1, 2], [1.0], "cell values"),
            ((6,), [1], [1.0], "2-D"),
        ],
    )
    def test_from_cells_checks(self, shape, flat, vals, match):
        with pytest.raises(ValueError, match=match):
            TrafficConditionMatrix.from_cells(shape, flat, vals)

    def test_from_cells_checks_labels(self):
        with pytest.raises(ValueError, match="slots"):
            TrafficConditionMatrix.from_cells(
                (2, 3), [1], [1.0], grid=TimeGrid(0.0, 60.0, 5)
            )
        with pytest.raises(ValueError, match="unique"):
            TrafficConditionMatrix.from_cells((2, 3), [1], [1.0], segment_ids=[1, 1, 2])
