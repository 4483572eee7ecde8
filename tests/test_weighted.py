"""Tests for repro.core.weighted (confidence-weighted completion)."""

import numpy as np
import pytest

from repro.core.completion import CompressiveSensingCompleter
from repro.core.weighted import ConfidenceWeightedCompleter, weights_from_counts
from repro.datasets.masks import random_integrity_mask
from repro.metrics.errors import nmae
from tests.conftest import make_low_rank


class TestWeightsFromCounts:
    def test_sqrt_scaling(self):
        w = weights_from_counts(np.array([0, 1, 4, 9]))
        assert list(w) == pytest.approx([0.0, 1.0, 2.0, 3.0])

    def test_cap(self):
        w = weights_from_counts(np.array([100.0]), cap=5.0)
        assert w[0] == 5.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            weights_from_counts(np.array([-1.0]))
        with pytest.raises(ValueError):
            weights_from_counts(np.array([1.0]), cap=0.0)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rank": 0},
            {"lam": -1.0},
            {"iterations": 0},
            {"clip_min": 2.0, "clip_max": 1.0},
            {"lam": float("nan")},
            {"lam": float("inf")},
        ],
    )
    def test_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            ConfidenceWeightedCompleter(**kwargs)

    def test_shape_checked(self):
        completer = ConfidenceWeightedCompleter()
        with pytest.raises(ValueError, match="shape"):
            completer.complete(np.ones((3, 3)), np.ones((2, 2)))

    def test_negative_weights_rejected(self):
        completer = ConfidenceWeightedCompleter()
        with pytest.raises(ValueError, match="non-negative"):
            completer.complete(np.ones((2, 2)), -np.ones((2, 2)))

    def test_all_zero_weights_rejected(self):
        completer = ConfidenceWeightedCompleter()
        with pytest.raises(ValueError, match="positive weight"):
            completer.complete(np.ones((2, 2)), np.zeros((2, 2)))


class TestCompletion:
    def test_uniform_weights_match_unweighted(self, low_rank_matrix):
        mask = random_integrity_mask(low_rank_matrix.shape, 0.5, seed=1)
        measured = np.where(mask, low_rank_matrix, 0.0)
        weights = mask.astype(float)
        weighted = ConfidenceWeightedCompleter(
            rank=2, lam=0.1, iterations=60, seed=0
        ).complete(measured, weights)
        plain = CompressiveSensingCompleter(
            rank=2, lam=0.1, iterations=60, seed=0
        ).complete(measured, mask)
        assert nmae(low_rank_matrix, weighted.estimate, ~mask) == pytest.approx(
            nmae(low_rank_matrix, plain.estimate, ~mask), abs=0.02
        )

    def test_exact_recovery(self, low_rank_matrix):
        mask = random_integrity_mask(low_rank_matrix.shape, 0.5, seed=1)
        measured = np.where(mask, low_rank_matrix, 0.0)
        result = ConfidenceWeightedCompleter(
            rank=2, lam=1e-6, iterations=200, seed=0
        ).complete(measured, mask.astype(float))
        assert nmae(low_rank_matrix, result.estimate, ~mask) < 0.01

    def test_downweights_noisy_cells(self):
        """Weighted completion resists single-report noisy cells."""
        x = make_low_rank(40, 30, 2, seed=3)
        rng = np.random.default_rng(0)
        mask = random_integrity_mask(x.shape, 0.5, seed=4)
        # Half the observed cells are single-report (noisy), half are
        # 16-report averages (clean).
        noisy_cells = mask & (rng.random(x.shape) < 0.5)
        clean_cells = mask & ~noisy_cells
        noise = rng.normal(0.0, x[mask].std() * 1.0, size=x.shape)
        measured = np.where(noisy_cells, x + noise, np.where(clean_cells, x, 0.0))

        counts = np.where(noisy_cells, 1.0, np.where(clean_cells, 16.0, 0.0))
        weights = weights_from_counts(counts)
        weighted = ConfidenceWeightedCompleter(
            rank=2, lam=1.0, iterations=60, seed=0
        ).complete(measured, weights)
        unweighted = CompressiveSensingCompleter(
            rank=2, lam=1.0, iterations=60, seed=0
        ).complete(measured, mask)
        err_w = nmae(x, weighted.estimate, ~mask)
        err_u = nmae(x, unweighted.estimate, ~mask)
        assert err_w < err_u

    def test_center_option(self, low_rank_matrix):
        mask = random_integrity_mask(low_rank_matrix.shape, 0.4, seed=5)
        measured = np.where(mask, low_rank_matrix, 0.0)
        result = ConfidenceWeightedCompleter(
            rank=2, lam=100.0, iterations=30, center=True, seed=0
        ).complete(measured, mask.astype(float))
        # With centering, heavy regularization shrinks toward the mean,
        # not toward zero.
        assert abs(result.estimate.mean() - low_rank_matrix[mask].mean()) < 0.3 * abs(
            low_rank_matrix[mask].mean()
        )

    def test_clipping(self, low_rank_matrix):
        mask = random_integrity_mask(low_rank_matrix.shape, 0.4, seed=6)
        result = ConfidenceWeightedCompleter(
            rank=2, lam=0.1, iterations=10, clip_min=0.0, clip_max=5.0, seed=0
        ).complete(np.where(mask, low_rank_matrix, 0.0), mask.astype(float))
        assert result.estimate.min() >= 0.0
        assert result.estimate.max() <= 5.0

    def test_deterministic(self, low_rank_matrix):
        mask = random_integrity_mask(low_rank_matrix.shape, 0.5, seed=7)
        measured = np.where(mask, low_rank_matrix, 0.0)
        a = ConfidenceWeightedCompleter(rank=2, iterations=15, seed=3).complete(
            measured, mask.astype(float)
        )
        b = ConfidenceWeightedCompleter(rank=2, iterations=15, seed=3).complete(
            measured, mask.astype(float)
        )
        assert np.allclose(a.estimate, b.estimate)
