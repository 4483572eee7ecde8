"""Tests for repro.baselines.mssa."""

import numpy as np
import pytest

from repro.baselines.mssa import MSSA, _block_hankel, _diagonal_average_stacked
from repro.datasets.masks import random_integrity_mask
from repro.metrics.errors import nmae
from tests.baseline_oracles import LoopMSSA, diagonal_average


class TestHankel:
    def test_shape(self):
        x = np.arange(12, dtype=float).reshape(6, 2)
        h = _block_hankel(x, window=3)
        assert h.shape == (4, 6)

    def test_values(self):
        x = np.arange(5, dtype=float)[:, None]
        h = _block_hankel(x, window=2)
        assert np.allclose(h, [[0, 1], [1, 2], [2, 3], [3, 4]])

    def test_window_too_large_rejected(self):
        with pytest.raises(ValueError):
            _block_hankel(np.ones((3, 1)), window=5)


class TestDiagonalAverage:
    def test_inverts_hankel(self):
        series = np.random.default_rng(0).normal(size=10)
        h = _block_hankel(series[:, None], window=4)
        for back in (_diagonal_average_stacked(h, 4, 10)[:, 0], diagonal_average(h, 10)):
            assert np.allclose(back, series)

    def test_averages_conflicts(self):
        block = np.array([[1.0, 3.0], [1.0, 5.0]])
        for out in (_diagonal_average_stacked(block, 2, 3)[:, 0], diagonal_average(block, 3)):
            assert out[0] == 1.0
            assert out[1] == 2.0  # mean of 3 and 1
            assert out[2] == 5.0


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 1},
            {"components": 0},
            {"max_iterations": 0},
            {"tol": 0.0},
            {"solver": "magic"},
        ],
    )
    def test_bad_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MSSA(**kwargs)


class TestComplete:
    def test_observed_cells_pass_through(self, truth_tcm):
        mask = random_integrity_mask(truth_tcm.shape, 0.5, seed=0)
        measured = np.where(mask, truth_tcm.values, 0.0)
        out = MSSA(window=8, components=3, max_iterations=3, solver="truncated").complete(
            measured, mask
        )
        assert np.allclose(out[mask], measured[mask])

    def test_recovers_periodic_signal(self):
        t = np.arange(96)
        channels = [10 + 3 * np.sin(2 * np.pi * t / 24 + phi) for phi in (0, 1, 2)]
        x = np.column_stack(channels)
        mask = random_integrity_mask(x.shape, 0.5, seed=1)
        out = MSSA(window=24, components=4, max_iterations=10, solver="truncated").complete(
            np.where(mask, x, 0.0), mask
        )
        assert nmae(x, out, ~mask) < 0.05

    def test_solvers_agree(self, truth_tcm):
        sub = truth_tcm.values[:48, :10]
        mask = random_integrity_mask(sub.shape, 0.5, seed=2)
        measured = np.where(mask, sub, 0.0)
        cov = MSSA(window=8, components=3, max_iterations=4, solver="covariance").complete(
            measured, mask
        )
        trunc = MSSA(window=8, components=3, max_iterations=4, solver="truncated").complete(
            measured, mask
        )
        # Both project onto the same top singular subspace.
        assert nmae(cov, trunc, ~mask) < 0.02

    def test_all_missing_returns_zeros(self):
        out = MSSA(window=4).complete(np.zeros((8, 2)), np.zeros((8, 2), dtype=bool))
        assert np.all(out == 0)

    def test_complete_matrix_passthrough(self):
        x = np.random.default_rng(3).uniform(1, 5, (20, 4))
        out = MSSA(window=6, solver="truncated").complete(x, np.ones_like(x, dtype=bool))
        assert np.allclose(out, x)

    def test_short_series_degenerates_gracefully(self):
        x = np.array([[1.0, 2.0]])
        mask = np.array([[True, False]])
        out = MSSA(window=24).complete(x, mask)
        assert np.all(np.isfinite(out))

    def test_window_clamped_to_series(self):
        x = np.tile(np.arange(6, dtype=float)[:, None] + 1, (1, 3))
        mask = random_integrity_mask(x.shape, 0.7, seed=4)
        out = MSSA(window=24, components=2, solver="truncated").complete(
            np.where(mask, x, 0.0), mask
        )
        assert np.all(np.isfinite(out))


class TestMethodEquivalence:
    @pytest.mark.parametrize("solver", ["truncated", "covariance"])
    def test_vectorized_matches_scalar(self, truth_tcm, solver):
        mask = random_integrity_mask(truth_tcm.shape, 0.4, seed=3)
        measured = np.where(mask, truth_tcm.values, 0.0)
        fast = MSSA(solver=solver, max_iterations=3).complete(measured, mask)
        slow = LoopMSSA(solver=solver, max_iterations=3).complete(measured, mask)
        np.testing.assert_allclose(fast, slow, atol=1e-10)
