"""Tests for repro.core.diagnostics."""

import numpy as np
import pytest

from repro.core.completion import CompletionResult, CompressiveSensingCompleter
from repro.core.diagnostics import (
    convergence_diagnostics,
    coverage_error_profile,
    fit_diagnostics,
)
from repro.core.tcm import TrafficConditionMatrix
from repro.datasets.masks import random_integrity_mask


@pytest.fixture()
def completed(truth_tcm, masked_tcm):
    completer = CompressiveSensingCompleter(rank=2, lam=10.0, iterations=40, seed=0)
    return completer.complete(masked_tcm)


class TestConvergence:
    def test_converged_run(self, completed):
        diag = convergence_diagnostics(completed)
        assert diag.converged
        assert diag.best_objective <= diag.final_objective * (1 + 1e-3)
        assert diag.iterations_run == completed.iterations_run
        assert 0.0 <= diag.relative_drop <= 1.0

    def test_unconverged_detected(self):
        result = CompletionResult(
            estimate=np.zeros((2, 2)),
            left=np.zeros((2, 1)),
            right=np.zeros((2, 1)),
            objective=1.0,
            objective_history=[5.0, 1.0, 4.0],  # bounced after the best
        )
        assert not convergence_diagnostics(result).converged

    def test_empty_history_rejected(self):
        result = CompletionResult(
            estimate=np.zeros((2, 2)),
            left=np.zeros((2, 1)),
            right=np.zeros((2, 1)),
            objective=np.inf,
            objective_history=[],
        )
        with pytest.raises(ValueError):
            convergence_diagnostics(result)


class TestFitDiagnostics:
    def test_overall_fields(self, masked_tcm, completed):
        diag = fit_diagnostics(masked_tcm, completed.estimate)
        assert np.isfinite(diag.observed_nmae)
        assert diag.observed_nmae < 0.5
        assert np.isfinite(diag.residual_std_kmh)

    def test_per_segment_complete(self, masked_tcm, completed):
        diag = fit_diagnostics(masked_tcm, completed.estimate)
        assert set(diag.per_segment_nmae) == set(masked_tcm.segment_ids)

    def test_worst_sorted(self, masked_tcm, completed):
        diag = fit_diagnostics(masked_tcm, completed.estimate, top_k=5)
        errs = [diag.per_segment_nmae[s] for s in diag.worst_segments]
        assert errs == sorted(errs, reverse=True)
        assert len(diag.worst_segments) <= 5

    def test_unobserved_segment_nan(self):
        values = np.ones((4, 2)) * 30
        mask = np.zeros((4, 2), dtype=bool)
        mask[:, 0] = True
        tcm = TrafficConditionMatrix(values, mask, segment_ids=[7, 8])
        diag = fit_diagnostics(tcm, np.ones((4, 2)) * 30)
        assert np.isnan(diag.per_segment_nmae[8])
        assert diag.per_segment_nmae[7] == 0.0

    def test_shape_checked(self, masked_tcm):
        with pytest.raises(ValueError):
            fit_diagnostics(masked_tcm, np.zeros((2, 2)))

    def test_top_k_checked(self, masked_tcm, completed):
        with pytest.raises(ValueError):
            fit_diagnostics(masked_tcm, completed.estimate, top_k=0)


class TestCoverageErrorProfile:
    def test_profile_rows(self, truth_tcm, masked_tcm, completed):
        rows = coverage_error_profile(
            truth_tcm.values, completed.estimate, masked_tcm.mask
        )
        assert len(rows) == 4
        total_segments = sum(r[3] for r in rows)
        assert total_segments == truth_tcm.num_segments

    def test_bins_validated(self, truth_tcm, masked_tcm, completed):
        with pytest.raises(ValueError):
            coverage_error_profile(
                truth_tcm.values, completed.estimate, masked_tcm.mask, bins=(0.5,)
            )
        with pytest.raises(ValueError):
            coverage_error_profile(
                truth_tcm.values,
                completed.estimate,
                masked_tcm.mask,
                bins=(1.0, 0.0),
            )

    def test_empty_bin_nan(self, truth_tcm, masked_tcm, completed):
        rows = coverage_error_profile(
            truth_tcm.values,
            completed.estimate,
            masked_tcm.mask,
            bins=(0.99, 1.0),  # 30%-integrity mask: no fully covered columns
        )
        assert rows[0][3] == 0
        assert np.isnan(rows[0][2])

    def test_better_coverage_not_worse(self, truth_tcm):
        """Structured coverage: well-observed segments estimate better."""
        from repro.datasets.masks import structured_missing_mask

        mask = structured_missing_mask(truth_tcm.shape, 0.3, seed=3)
        masked = truth_tcm.with_mask(mask)
        completer = CompressiveSensingCompleter(rank=2, lam=10.0, iterations=60, seed=0)
        estimate = completer.complete(masked).estimate
        rows = coverage_error_profile(
            truth_tcm.values, estimate, mask, bins=(0.0, 0.15, 1.0)
        )
        low_cov, high_cov = rows[0], rows[1]
        if low_cov[3] > 0 and high_cov[3] > 0:
            assert high_cov[2] <= low_cov[2] * 1.2
