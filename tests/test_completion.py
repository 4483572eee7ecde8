"""Tests for repro.core.completion (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.completion import (
    FLOAT32_RTOL,
    CompletionResult,
    CompressiveSensingCompleter,
    _WorkspaceKernel,
)
from repro.core.tcm import TrafficConditionMatrix
from repro.datasets.masks import random_integrity_mask
from repro.experiments.perf_bench import _make_truth, default_cases
from repro.metrics.errors import nmae
from tests.conftest import EQUIVALENCE_TOL, make_low_rank
from tests.solver_oracles import als_reference, eq16, ridge_by_column


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rank": 0},
            {"lam": -1.0},
            {"iterations": 0},
            {"tol": 0.0},
            {"clip_min": 5.0, "clip_max": 1.0},
        ],
    )
    def test_bad_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CompressiveSensingCompleter(**kwargs)

    def test_requires_mask_for_raw_array(self):
        completer = CompressiveSensingCompleter()
        with pytest.raises(ValueError, match="mask"):
            completer.complete(np.ones((3, 3)))

    def test_rejects_mask_with_tcm(self, masked_tcm):
        completer = CompressiveSensingCompleter()
        with pytest.raises(ValueError, match="implied"):
            completer.complete(masked_tcm, mask=masked_tcm.mask)

    def test_rejects_empty_mask(self):
        completer = CompressiveSensingCompleter()
        with pytest.raises(ValueError, match="no observed"):
            completer.complete(np.zeros((3, 3)), np.zeros((3, 3), dtype=bool))


class TestExactRecovery:
    def test_recovers_exact_low_rank(self, low_rank_matrix):
        mask = random_integrity_mask(low_rank_matrix.shape, 0.5, seed=1)
        measured = np.where(mask, low_rank_matrix, 0.0)
        completer = CompressiveSensingCompleter(
            rank=2, lam=1e-6, iterations=200, seed=0
        )
        result = completer.complete(measured, mask)
        err = nmae(low_rank_matrix, result.estimate, ~mask)
        assert err < 0.01

    def test_rank1_recovery(self):
        x = make_low_rank(30, 20, 1, seed=3)
        mask = random_integrity_mask(x.shape, 0.3, seed=2)
        completer = CompressiveSensingCompleter(rank=1, lam=1e-6, iterations=150, seed=0)
        result = completer.complete(np.where(mask, x, 0.0), mask)
        assert nmae(x, result.estimate, ~mask) < 0.01

    def test_complete_matrix_fit(self, low_rank_matrix):
        mask = np.ones(low_rank_matrix.shape, dtype=bool)
        completer = CompressiveSensingCompleter(rank=2, lam=1e-8, iterations=100, seed=0)
        result = completer.complete(low_rank_matrix, mask)
        assert np.allclose(result.estimate, low_rank_matrix, rtol=1e-3, atol=1e-3)


class TestResultStructure:
    @pytest.fixture()
    def result(self, low_rank_matrix):
        mask = random_integrity_mask(low_rank_matrix.shape, 0.6, seed=4)
        completer = CompressiveSensingCompleter(rank=3, lam=0.1, iterations=25, seed=1)
        return completer.complete(np.where(mask, low_rank_matrix, 0.0), mask)

    def test_shapes(self, result, low_rank_matrix):
        m, n = low_rank_matrix.shape
        assert result.estimate.shape == (m, n)
        assert result.left.shape == (m, 3)
        assert result.right.shape == (n, 3)

    def test_estimate_is_factor_product(self, result):
        assert np.allclose(result.estimate, result.left @ result.right.T)

    def test_objective_history_tracks_best(self, result):
        assert result.objective == pytest.approx(min(result.objective_history))
        assert result.iterations_run == len(result.objective_history)

    def test_rank_bound_property(self, result):
        assert result.rank_bound == 3

    def test_objective_nonincreasing(self, result):
        history = np.array(result.objective_history)
        # ALS with exact inner solves must (weakly) decrease the objective.
        assert np.all(np.diff(history) <= np.abs(history[:-1]) * 1e-6)

    def test_fused_keeps_observations(self, low_rank_matrix):
        mask = random_integrity_mask(low_rank_matrix.shape, 0.5, seed=5)
        measured = np.where(mask, low_rank_matrix, 0.0)
        completer = CompressiveSensingCompleter(rank=2, lam=0.1, iterations=20, seed=0)
        result = completer.complete(measured, mask)
        fused = result.fused(measured, mask)
        assert np.allclose(fused[mask], measured[mask])
        assert np.allclose(fused[~mask], result.estimate[~mask])


class TestOptions:
    def test_clipping(self, low_rank_matrix):
        mask = random_integrity_mask(low_rank_matrix.shape, 0.4, seed=6)
        completer = CompressiveSensingCompleter(
            rank=2, lam=0.1, iterations=10, clip_min=3.0, clip_max=4.0, seed=0
        )
        result = completer.complete(np.where(mask, low_rank_matrix, 0.0), mask)
        assert result.estimate.min() >= 3.0
        assert result.estimate.max() <= 4.0

    def test_seed_determinism(self, low_rank_matrix):
        mask = random_integrity_mask(low_rank_matrix.shape, 0.5, seed=7)
        measured = np.where(mask, low_rank_matrix, 0.0)
        r1 = CompressiveSensingCompleter(rank=2, iterations=15, seed=9).complete(
            measured, mask
        )
        r2 = CompressiveSensingCompleter(rank=2, iterations=15, seed=9).complete(
            measured, mask
        )
        assert np.allclose(r1.estimate, r2.estimate)

    def test_tol_early_stop(self, low_rank_matrix):
        mask = random_integrity_mask(low_rank_matrix.shape, 0.6, seed=8)
        measured = np.where(mask, low_rank_matrix, 0.0)
        full = CompressiveSensingCompleter(rank=2, lam=1e-6, iterations=300, seed=0)
        early = CompressiveSensingCompleter(
            rank=2, lam=1e-6, iterations=300, tol=1e-4, seed=0
        )
        assert (
            early.complete(measured, mask).iterations_run
            < full.complete(measured, mask).iterations_run
        )

    def test_rank_capped_by_shape(self):
        x = make_low_rank(5, 4, 1)
        mask = np.ones(x.shape, dtype=bool)
        completer = CompressiveSensingCompleter(rank=50, lam=0.1, iterations=5, seed=0)
        result = completer.complete(x, mask)
        assert result.rank_bound <= 4

    def test_accepts_tcm_input(self, masked_tcm):
        completer = CompressiveSensingCompleter(rank=2, iterations=15, seed=0)
        result = completer.complete(masked_tcm)
        assert result.estimate.shape == masked_tcm.shape

    def test_unmasked_solver_runs(self, low_rank_matrix):
        mask = random_integrity_mask(low_rank_matrix.shape, 0.7, seed=9)
        completer = CompressiveSensingCompleter(
            rank=2, lam=1.0, iterations=20, mask_aware=False, seed=0
        )
        result = completer.complete(np.where(mask, low_rank_matrix, 0.0), mask)
        assert np.all(np.isfinite(result.estimate))

    def test_mask_aware_beats_literal_on_missing_data(self, low_rank_matrix):
        # The paper-literal solver treats missing cells as zeros and
        # biases the estimate; the mask-aware solver must do better.
        mask = random_integrity_mask(low_rank_matrix.shape, 0.4, seed=10)
        measured = np.where(mask, low_rank_matrix, 0.0)
        aware = CompressiveSensingCompleter(
            rank=2, lam=0.1, iterations=60, mask_aware=True, seed=0
        ).complete(measured, mask)
        literal = CompressiveSensingCompleter(
            rank=2, lam=0.1, iterations=60, mask_aware=False, seed=0
        ).complete(measured, mask)
        assert nmae(low_rank_matrix, aware.estimate, ~mask) < nmae(
            low_rank_matrix, literal.estimate, ~mask
        )


class TestRestarts:
    def test_restarts_validated(self):
        with pytest.raises(ValueError):
            CompressiveSensingCompleter(restarts=0)

    def test_restarts_never_worse(self, low_rank_matrix):
        mask = random_integrity_mask(low_rank_matrix.shape, 0.5, seed=11)
        measured = np.where(mask, low_rank_matrix, 0.0)
        single = CompressiveSensingCompleter(
            rank=2, lam=1e-4, iterations=60, restarts=1, seed=0
        ).complete(measured, mask)
        multi = CompressiveSensingCompleter(
            rank=2, lam=1e-4, iterations=60, restarts=4, seed=0
        ).complete(measured, mask)
        assert multi.objective <= single.objective + 1e-9

    def test_restarts_counted_in_iterations_run(self, low_rank_matrix):
        mask = random_integrity_mask(low_rank_matrix.shape, 0.5, seed=12)
        measured = np.where(mask, low_rank_matrix, 0.0)
        result = CompressiveSensingCompleter(
            rank=2, lam=0.1, iterations=10, restarts=3, seed=0
        ).complete(measured, mask)
        assert result.iterations_run == 30

    def test_escapes_local_minimum(self):
        """The seed-0 instance where a single ALS run gets stuck."""
        x = make_low_rank(20, 15, 2, seed=0)
        mask = random_integrity_mask(x.shape, 0.6, seed=1)
        measured = np.where(mask, x, 0.0)
        multi = CompressiveSensingCompleter(
            rank=2, lam=1e-4, iterations=120, restarts=3, seed=0
        ).complete(measured, mask)
        assert nmae(x, multi.estimate, ~mask) < 0.05


class TestEdgeCases:
    def test_single_observation(self):
        values = np.zeros((4, 4))
        values[1, 2] = 7.0
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 2] = True
        completer = CompressiveSensingCompleter(rank=1, lam=0.1, iterations=10, seed=0)
        result = completer.complete(values, mask)
        assert np.all(np.isfinite(result.estimate))

    def test_empty_column_gets_finite_estimate(self):
        x = make_low_rank(10, 5, 2)
        mask = np.ones(x.shape, dtype=bool)
        mask[:, 3] = False
        completer = CompressiveSensingCompleter(rank=2, lam=0.5, iterations=20, seed=0)
        result = completer.complete(np.where(mask, x, 0.0), mask)
        assert np.all(np.isfinite(result.estimate[:, 3]))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_any_seed_finite(self, seed):
        x = make_low_rank(12, 9, 2, seed=1)
        mask = random_integrity_mask(x.shape, 0.5, seed=2)
        completer = CompressiveSensingCompleter(rank=2, lam=1.0, iterations=8, seed=seed)
        result = completer.complete(np.where(mask, x, 0.0), mask)
        assert np.all(np.isfinite(result.estimate))


class TestSolverEquivalence:
    """The completer must reproduce the per-column reference ALS."""

    @staticmethod
    def _assert_match(measured, mask, **params):
        result = CompressiveSensingCompleter(seed=0, **params).complete(
            measured, mask
        )
        reference, objective, _ = als_reference(measured, mask, seed=0, **params)
        diff = np.max(np.abs(result.estimate - reference))
        assert diff <= EQUIVALENCE_TOL, f"completer deviates from the oracle by {diff}"
        assert result.objective == pytest.approx(objective, rel=1e-9, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(
        mask_seed=st.integers(0, 2**31 - 1),
        integrity=st.floats(0.05, 0.95),
        rank=st.integers(1, 5),
        mask_aware=st.booleans(),
    )
    def test_random_masks(self, mask_seed, integrity, rank, mask_aware):
        x = make_low_rank(14, 10, 2, seed=3)
        mask = random_integrity_mask(x.shape, integrity, seed=mask_seed)
        self._assert_match(
            np.where(mask, x, 0.0),
            mask,
            rank=rank,
            lam=0.7,
            iterations=6,
            mask_aware=mask_aware,
        )

    def test_all_unobserved_columns(self):
        x = make_low_rank(12, 8, 2, seed=4)
        mask = random_integrity_mask(x.shape, 0.6, seed=5)
        mask[:, [1, 6]] = False
        self._assert_match(
            np.where(mask, x, 0.0), mask, rank=2, lam=0.3, iterations=8
        )

    def test_all_unobserved_rows(self):
        x = make_low_rank(12, 8, 2, seed=6)
        mask = random_integrity_mask(x.shape, 0.6, seed=7)
        mask[[0, 5, 11], :] = False
        self._assert_match(
            np.where(mask, x, 0.0), mask, rank=2, lam=0.3, iterations=8
        )

    def test_rank_above_observed_rows(self):
        # Fewer observations per column than factor columns: the Gram
        # matrix is rank-deficient and only the ridge term makes the
        # solve well-posed — the kernel must agree on that solution.
        x = make_low_rank(9, 7, 2, seed=8)
        mask = random_integrity_mask(x.shape, 0.25, seed=9)
        self._assert_match(
            np.where(mask, x, 0.0), mask, rank=6, lam=0.5, iterations=6
        )

    def test_mask_oblivious_literal_mode(self):
        x = make_low_rank(10, 6, 2, seed=10)
        mask = random_integrity_mask(x.shape, 0.5, seed=11)
        self._assert_match(
            np.where(mask, x, 0.0),
            mask,
            rank=2,
            lam=1.0,
            iterations=10,
            mask_aware=False,
        )

    def test_centered_mode(self):
        x = make_low_rank(10, 6, 2, seed=12)
        mask = random_integrity_mask(x.shape, 0.5, seed=13)
        self._assert_match(
            np.where(mask, x, 0.0),
            mask,
            rank=2,
            lam=1.0,
            iterations=10,
            center=True,
        )

    def test_bench_smoke_case(self):
        # The shape, truth model and solver settings of `repro bench
        # --smoke`'s Algorithm 1 case.
        case = default_cases(smoke=True)[0]
        rng = np.random.default_rng(0)
        truth = _make_truth(case.m, case.n, rng)
        mask = random_integrity_mask((case.m, case.n), case.integrity, seed=rng)
        self._assert_match(
            np.where(mask, truth, 0.0), mask, rank=2, lam=10.0, iterations=20
        )


class TestKernel:
    """The bound workspace kernel against the per-column loop."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        rank=st.integers(1, 4),
        lam=st.sampled_from([0.0, 0.1, 100.0]),
        dtype=st.sampled_from([np.float64, np.float32]),
    )
    def test_matches_loop(self, seed, rank, lam, dtype):
        rng = np.random.default_rng(seed)
        m, n = 16, 11
        mask = rng.random((m, n)) < 0.6
        if lam == 0:
            # Every row and column keeps >= rank observations, except
            # two entirely unobserved columns the kernel must exclude.
            mask[: 2 * rank] = True
            mask[:, : 2 * rank] = True
            mask[:, [n - 3, n - 1]] = False
        values = np.where(mask, rng.normal(30.0, 8.0, (m, n)), 0.0)
        left = rng.standard_normal((m, rank))
        right = rng.standard_normal((n, rank))
        kernel = _WorkspaceKernel(
            values.astype(dtype), mask.astype(dtype), lam, rank
        )
        got = (
            kernel.solve_right(left.astype(dtype)),
            kernel.solve_left(right.astype(dtype)),
        )
        want = (
            ridge_by_column(left, values, mask, lam),
            ridge_by_column(right, values.T, mask.T, lam),
        )
        for g, w in zip(got, want):
            assert g.dtype == dtype
            tol = EQUIVALENCE_TOL if dtype is np.float64 else FLOAT32_RTOL
            scale = max(1.0, float(np.abs(w).max()))
            assert float(np.abs(g - w).max()) <= tol * scale

    def test_binding_copies_no_full_matrix(self):
        m, n = 30, 20
        values = np.zeros((m, n))
        ind = np.ones((m, n))
        kernel = _WorkspaceKernel(values, ind, 1.0, 2)
        assert np.shares_memory(kernel._m_t, values)
        assert np.shares_memory(kernel._ind_t, ind)
        for name, arr in vars(kernel).items():
            if isinstance(arr, np.ndarray) and arr.size >= m * n:
                assert np.shares_memory(arr, values) or np.shares_memory(
                    arr, ind
                ), f"kernel attribute {name} copies an (m, n) array"


class TestObjectiveOracle:
    """Each sweep's objective against Eq. 16 evaluated directly."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        rank=st.integers(1, 4),
        lam=st.sampled_from([0.0, 0.1, 100.0]),
        center=st.booleans(),
        mask_aware=st.booleans(),
    )
    def test_history_matches_eq16(self, seed, rank, lam, center, mask_aware):
        rng = np.random.default_rng(seed)
        m, n = 16, 11
        mask = rng.random((m, n)) < 0.6
        if lam == 0:
            # Valid at lam=0: every row and column keeps >= rank
            # observations, except two entirely unobserved columns.
            mask[: 2 * rank] = True
            mask[:, : 2 * rank] = True
            mask[:, [n - 3, n - 1]] = False
        values = np.where(mask, rng.normal(30.0, 8.0, (m, n)), 0.0)
        params = dict(
            rank=rank,
            lam=lam,
            iterations=6,
            mask_aware=mask_aware,
            center=center,
        )
        result = CompressiveSensingCompleter(seed=seed, **params).complete(
            values, mask
        )
        _, objective, history = als_reference(values, mask, seed=seed, **params)
        assert len(result.objective_history) == len(history)
        np.testing.assert_allclose(result.objective_history, history, rtol=1e-9)
        assert result.objective == pytest.approx(objective, rel=1e-9)

    def test_float32_objective_within_tolerance(self):
        case = default_cases(smoke=True)[0]
        rng = np.random.default_rng(0)
        truth = _make_truth(case.m, case.n, rng)
        mask = random_integrity_mask((case.m, case.n), case.integrity, seed=rng)
        measured = np.where(mask, truth, 0.0)
        result = CompressiveSensingCompleter(
            rank=2, lam=10.0, iterations=20, dtype=np.float32, seed=0
        ).complete(measured, mask)
        assert result.left.dtype == np.float32
        direct = eq16(result.left, result.right, measured, mask, 10.0)
        assert abs(result.objective - direct) <= FLOAT32_RTOL * direct


class TestLamZero:
    """lam=0 removes the ridge; rank-deficient rows/columns are rejected."""

    @pytest.mark.parametrize("axis, label", [(0, "column"), (1, "row")])
    def test_single_observation_named(self, axis, label):
        x = make_low_rank(12, 8, 2, seed=14)
        mask = np.ones(x.shape, dtype=bool)
        if axis == 0:
            mask[:, 3] = False
            mask[4, 3] = True
        else:
            mask[3, 1:] = False
        completer = CompressiveSensingCompleter(rank=2, lam=0.0, iterations=5, seed=0)
        with pytest.raises(ValueError, match=f"{label} 3 is observed in only 1 cell"):
            completer.complete(np.where(mask, x, 0.0), mask)

    def test_half_integrity_rank_two(self):
        # A sparse random mask leaves a row or column with a single
        # observation: a typed error up front, not a LinAlgError from
        # inside the first sweep.
        x = make_low_rank(12, 8, 2, seed=15)
        mask = random_integrity_mask(x.shape, 0.5, seed=4)
        counts = np.concatenate([mask.sum(axis=0), mask.sum(axis=1)])
        assert (counts == 1).any()
        completer = CompressiveSensingCompleter(rank=2, lam=0.0, iterations=5, seed=0)
        with pytest.raises(ValueError, match="lam=0"):
            completer.complete(np.where(mask, x, 0.0), mask)


class TestParallelRestarts:
    """Worker pools must not change numbers: parallel == serial, bitwise."""

    def _completer(self, max_workers):
        return CompressiveSensingCompleter(
            rank=2, lam=0.2, iterations=15, restarts=4, max_workers=max_workers, seed=0
        )

    def test_parallel_bit_identical_to_serial(self, low_rank_matrix):
        mask = random_integrity_mask(low_rank_matrix.shape, 0.5, seed=21)
        measured = np.where(mask, low_rank_matrix, 0.0)
        serial = self._completer(None).complete(measured, mask)
        parallel = self._completer(4).complete(measured, mask)
        assert np.array_equal(serial.estimate, parallel.estimate)
        assert serial.objective == parallel.objective
        assert serial.objective_history == parallel.objective_history
        assert serial.restart_histories == parallel.restart_histories
        assert serial.best_restart == parallel.best_restart

    def test_restart_histories_structure(self, low_rank_matrix):
        mask = random_integrity_mask(low_rank_matrix.shape, 0.5, seed=22)
        measured = np.where(mask, low_rank_matrix, 0.0)
        result = self._completer(None).complete(measured, mask)
        assert result.num_restarts == 4
        assert 0 <= result.best_restart < 4
        assert result.objective_history == result.restart_histories[result.best_restart]
        assert result.iterations_run == sum(
            len(h) for h in result.restart_histories
        )
        # The winner is the restart with the lowest final objective.
        finals = [h[-1] for h in result.restart_histories]
        assert result.objective == pytest.approx(min(finals))
        assert result.best_restart == finals.index(min(finals))

    def test_max_workers_validated(self):
        with pytest.raises(ValueError):
            CompressiveSensingCompleter(max_workers=-2)
