"""Cross-cutting property-based tests (hypothesis).

These check invariants that span modules: the completion/metrics
contract, mask algebra, aggregation conservation, and eigenflow
decomposition identities — on randomized inputs rather than fixtures.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.baselines import HistoricalMean, LinearInterpolation, NaiveKNN
from repro.core.completion import CompressiveSensingCompleter
from repro.core.eigenflows import analyze_eigenflows
from repro.core.tcm import TrafficConditionMatrix
from repro.datasets.masks import random_integrity_mask
from repro.metrics.errors import nmae, rmse
from tests.conftest import make_low_rank

slow_settings = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

speed_matrices = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(4, 12), st.integers(3, 10)),
    elements=st.floats(1.0, 100.0, allow_nan=False),
)


class TestMaskAlgebra:
    @slow_settings
    @given(speed_matrices, st.floats(0.1, 0.9), st.integers(0, 100))
    def test_with_mask_integrity_matches(self, values, integrity, seed):
        tcm = TrafficConditionMatrix(values)
        mask = random_integrity_mask(tcm.shape, integrity, seed=seed)
        masked = tcm.with_mask(mask)
        assert masked.integrity == pytest.approx(mask.mean())

    @slow_settings
    @given(speed_matrices, st.floats(0.2, 0.8), st.integers(0, 100))
    def test_observed_cells_survive_masking(self, values, integrity, seed):
        tcm = TrafficConditionMatrix(values)
        mask = random_integrity_mask(tcm.shape, integrity, seed=seed)
        masked = tcm.with_mask(mask)
        assert np.allclose(masked.values[mask], values[mask])
        assert np.all(masked.values[~mask] == 0.0)

    @slow_settings
    @given(speed_matrices, st.floats(0.2, 0.8), st.integers(0, 100))
    def test_road_slot_integrity_consistent(self, values, integrity, seed):
        tcm = TrafficConditionMatrix(values)
        masked = tcm.with_mask(random_integrity_mask(tcm.shape, integrity, seed=seed))
        # Means of the per-axis integrities both equal overall integrity.
        assert masked.road_integrity().mean() == pytest.approx(masked.integrity)
        assert masked.slot_integrity().mean() == pytest.approx(masked.integrity)


class TestBaselineContracts:
    """All completion algorithms share the same I/O contract."""

    ALGOS = [NaiveKNN(k=3), HistoricalMean(), LinearInterpolation()]

    @slow_settings
    @given(speed_matrices, st.floats(0.3, 0.9), st.integers(0, 50))
    def test_observed_passthrough_and_total_fill(self, values, integrity, seed):
        mask = random_integrity_mask(values.shape, integrity, seed=seed)
        if not mask.any():
            return
        measured = np.where(mask, values, 0.0)
        for algo in self.ALGOS:
            out = algo.complete(measured, mask)
            assert out.shape == values.shape
            assert np.all(np.isfinite(out))
            assert np.allclose(out[mask], measured[mask])

    @slow_settings
    @given(speed_matrices, st.floats(0.3, 0.9), st.integers(0, 50))
    def test_estimates_bounded_by_observations(self, values, integrity, seed):
        """Averaging baselines never extrapolate beyond observed range."""
        mask = random_integrity_mask(values.shape, integrity, seed=seed)
        if not mask.any():
            return
        measured = np.where(mask, values, 0.0)
        lo, hi = measured[mask].min(), measured[mask].max()
        for algo in (NaiveKNN(k=3), HistoricalMean(), LinearInterpolation()):
            out = algo.complete(measured, mask)
            assert out.min() >= lo - 1e-9
            assert out.max() <= hi + 1e-9


class TestCompletionMetricsContract:
    @slow_settings
    @given(st.integers(1, 3), st.integers(0, 50))
    def test_recovery_error_scales_with_rank_match(self, true_rank, seed):
        """Completion at the true rank recovers identifiable matrices."""
        x = make_low_rank(20, 15, true_rank, seed=seed)
        mask = random_integrity_mask(x.shape, 0.6, seed=seed + 1)
        # Identifiability margin: every row and column needs comfortably
        # more observations than the rank, otherwise its factor is
        # near-underdetermined and ALS recovery is not guaranteed.  At
        # exactly 2r observations ALS can still land in a bad local
        # minimum (all solvers agree on the wrong completion), so the
        # margin is strict.
        if (
            mask.sum(axis=1).min() <= 2 * true_rank
            or mask.sum(axis=0).min() <= 2 * true_rank
        ):
            return
        measured = np.where(mask, x, 0.0)
        # The best of five random inits (lowest objective) guards against
        # ALS local minima on these tiny randomized instances.
        good = min(
            (
                CompressiveSensingCompleter(
                    rank=true_rank, lam=1e-4, iterations=120, seed=init_seed
                ).complete(measured, mask)
                for init_seed in range(5)
            ),
            key=lambda result: result.objective,
        )
        assert nmae(x, good.estimate, ~mask) < 0.05

    @slow_settings
    @given(st.integers(0, 50))
    def test_nmae_zero_iff_exact_on_mask(self, seed):
        x = make_low_rank(10, 8, 2, seed=seed)
        mask = random_integrity_mask(x.shape, 0.5, seed=seed)
        if not mask.any() or mask.all():
            return
        assert nmae(x, x, mask) == 0.0
        perturbed = x.copy()
        cell = tuple(np.argwhere(mask)[0])
        perturbed[cell] += 1.0
        assert nmae(x, perturbed, mask) > 0.0

    @slow_settings
    @given(speed_matrices)
    def test_rmse_dominates_scaled_nmae(self, x):
        """RMSE >= mean absolute error = NMAE * mean|x|."""
        noisy = x * 1.07
        mae = nmae(x, noisy) * np.abs(x).mean()
        assert rmse(x, noisy) >= mae - 1e-9


class TestEigenflowIdentities:
    @slow_settings
    @given(speed_matrices)
    def test_full_reconstruction_identity(self, x):
        analysis = analyze_eigenflows(x)
        recon = analysis.reconstruct(range(analysis.num_flows))
        assert np.allclose(recon, x, atol=1e-6)

    @slow_settings
    @given(speed_matrices)
    def test_energy_matches_frobenius(self, x):
        analysis = analyze_eigenflows(x)
        assert np.sum(analysis.singular_values**2) == pytest.approx(
            np.sum(x**2), rel=1e-9
        )

    @slow_settings
    @given(speed_matrices, st.integers(1, 4))
    def test_partial_reconstruction_never_increases_error(self, x, k):
        """Adding components (in SVD order) never worsens the fit."""
        analysis = analyze_eigenflows(x)
        k = min(k, analysis.num_flows - 1)
        if k < 1:
            return
        smaller = analysis.reconstruct(range(k))
        larger = analysis.reconstruct(range(k + 1))
        assert np.linalg.norm(x - larger) <= np.linalg.norm(x - smaller) + 1e-9


class TestAggregationConservation:
    @slow_settings
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 899.0),   # time within slot 0
                st.integers(0, 2),        # segment
                st.floats(5.0, 80.0),     # speed
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_cell_average_is_report_mean(self, raw):
        from repro.core.tcm import TimeGrid
        from repro.probes.aggregation import aggregate_reports
        from repro.probes.report import ProbeReport, ReportBatch

        reports = [
            ProbeReport(i, t, 0.0, 0.0, speed, seg)
            for i, (t, seg, speed) in enumerate(raw)
        ]
        grid = TimeGrid(0.0, 900.0, 1)
        tcm = aggregate_reports(ReportBatch(reports), grid, [0, 1, 2])
        for seg in (0, 1, 2):
            speeds = [s for (t, sg, s) in raw if sg == seg]
            if speeds:
                assert tcm.values[0, seg] == pytest.approx(np.mean(speeds))
                assert tcm.mask[0, seg]
            else:
                assert not tcm.mask[0, seg]
