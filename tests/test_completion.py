"""Tests for repro.core.completion (Algorithm 1)."""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import completion
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
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
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
            {"lam": float("nan")},
            {"lam": float("inf")},
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


@contextmanager
def forced_layout(sparse):
    """Bind every kernel in the sparse (or dense) layout, whatever the rule."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(completion, "_sparse_layout", lambda cells, observed: sparse)
        yield


def random_mask_cases(test):
    """The examples of the random-mask oracle comparison."""
    return settings(max_examples=20, deadline=None)(
        given(
            mask_seed=st.integers(0, 2**31 - 1),
            integrity=st.floats(0.05, 0.95),
            rank=st.integers(1, 5),
            mask_aware=st.booleans(),
        )(test)
    )


def kernel_cases(test):
    """The examples of the kernel-against-loop comparison."""
    return settings(max_examples=40, deadline=None)(
        given(
            seed=st.integers(0, 2**31 - 1),
            rank=st.integers(1, 4),
            lam=st.sampled_from([0.0, 0.1, 100.0]),
            dtype=st.sampled_from([np.float64, np.float32]),
        )(test)
    )


class LayoutForced:
    """Runs a test class with the kernel layout forced to ``SPARSE``."""

    SPARSE = False

    @pytest.fixture(autouse=True, scope="class")
    def _layout(self, request):
        with forced_layout(request.cls.SPARSE):
            yield


class TestSolverEquivalence(LayoutForced):
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

    @random_mask_cases
    def test_random_masks(self, mask_seed, integrity, rank, mask_aware):
        self.check_random_masks(mask_seed, integrity, rank, mask_aware)

    def check_random_masks(self, mask_seed, integrity, rank, mask_aware):
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

    @pytest.mark.parametrize("center", [False, True])
    def test_observed_zero_stays_observed(self, center):
        # Observed cells whose (centred) value is exactly 0 keep their
        # place in the ridge systems: the pattern is the mask's.
        x = make_low_rank(12, 9, 2, seed=16)
        mask = random_integrity_mask(x.shape, 0.5, seed=17)
        measured = np.where(mask, x, 0.0)
        rows, cols = np.nonzero(mask)
        zeroed = (rows[::3], cols[::3])
        measured[zeroed] = 0.0
        if center:
            measured[zeroed] = measured[mask].mean()
            measured[zeroed] = measured[mask].mean()
        self._assert_match(
            measured, mask, rank=2, lam=0.5, iterations=8, center=center
        )


class TestSolverEquivalenceSparse(TestSolverEquivalence):
    """The oracle comparisons with every kernel bound in the sparse layout."""

    SPARSE = True

    # Hypothesis runs a test function from one class only: restate it.
    @random_mask_cases
    def test_random_masks(self, mask_seed, integrity, rank, mask_aware):
        self.check_random_masks(mask_seed, integrity, rank, mask_aware)


class TestKernel(LayoutForced):
    """The bound workspace kernel against the per-column loop."""

    @kernel_cases
    def test_matches_loop(self, seed, rank, lam, dtype):
        self.check_matches_loop(seed, rank, lam, dtype)

    def check_matches_loop(self, seed, rank, lam, dtype):
        rng = np.random.default_rng(seed)
        m, n = 16, 11
        mask = rng.random((m, n)) < 0.6
        if lam == 0:
            # Every row and column keeps >= rank observations, except
            # two entirely unobserved columns the kernel must exclude.
            mask[: 2 * rank] = True
            mask[:, : 2 * rank] = True
            mask[:, [n - 3, n - 1]] = False
        # An all-unobserved row and column, and observed cells whose
        # value is exactly 0.
        mask[m - 2] = False
        mask[:, n - 3] = False
        values = np.where(mask, rng.normal(30.0, 8.0, (m, n)), 0.0)
        values[0, :3] = 0.0
        left = rng.standard_normal((m, rank))
        right = rng.standard_normal((n, rank))
        kernel = _WorkspaceKernel(
            values.astype(dtype), mask.astype(dtype), lam, rank
        )
        assert kernel.sparse is self.SPARSE
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
        ind = (np.random.default_rng(0).random((m, n)) < 0.2).astype(np.float64)
        values = 7.0 * ind
        kernel = _WorkspaceKernel(values, ind, 1.0, 2)
        assert kernel.sparse is self.SPARSE
        if not self.SPARSE:
            assert np.shares_memory(kernel._m_t, values)
            assert np.shares_memory(kernel._ind_t, ind)
        arrays = []
        for name, attr in vars(kernel).items():
            if isinstance(attr, np.ndarray):
                arrays.append((name, attr))
            elif hasattr(attr, "indptr"):  # a CSR matrix: O(observed) arrays
                for part in ("data", "indices", "indptr"):
                    arrays.append((f"{name}.{part}", getattr(attr, part)))
        assert self.SPARSE == any("." in name for name, _ in arrays)
        for name, arr in arrays:
            if arr.size >= m * n:
                assert np.shares_memory(arr, values) or np.shares_memory(
                    arr, ind
                ), f"kernel attribute {name} copies an (m, n) array"


    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("lam", [0.0, 100.0])
    def test_cells_bind_matches_arrays(self, dtype, lam):
        # The cells come as a TCM keeps them (row-major flat indices),
        # the arrays as Algorithm 1 hands them over (indicator cast).
        rng = np.random.default_rng(4)
        m, n, rank = 24, 17, 2
        mask = rng.random((m, n)) < 0.5
        mask[:, : 2 * rank] = True
        mask[: 2 * rank] = True
        values = np.where(mask, rng.normal(30.0, 8.0, (m, n)), 0.0).astype(dtype)
        values[1, 0] = 0.0  # observed, and 0
        flat = np.flatnonzero(mask)
        rows, cols = np.divmod(flat, n)
        cells = completion.ObservedCells((m, n), rows, cols, values.reshape(-1)[flat])
        from_arrays = _WorkspaceKernel(values, mask.astype(dtype), lam, rank)
        from_cells = _WorkspaceKernel(cells, None, lam, rank)
        assert from_arrays.sparse is from_cells.sparse is self.SPARSE
        left_a = left_c = rng.standard_normal((m, rank)).astype(dtype)
        for _ in range(4):
            right_a = from_arrays.solve_right(left_a).copy()
            right_c = from_cells.solve_right(left_c).copy()
            left_a = from_arrays.solve_left(right_a).copy()
            left_c = from_cells.solve_left(right_c).copy()
            assert right_a.tobytes() == right_c.tobytes()
            assert left_a.tobytes() == left_c.tobytes()
            assert from_arrays.objective(left_a, right_a) == from_cells.objective(
                left_c, right_c
            )


class TestKernelSparse(TestKernel):
    """The kernel tests with the sparse layout bound."""

    SPARSE = True

    @kernel_cases
    def test_matches_loop(self, seed, rank, lam, dtype):
        self.check_matches_loop(seed, rank, lam, dtype)


class TestLayoutSelection:
    """Which layout the rule binds, and the signals that report it."""

    @pytest.mark.parametrize(
        "shape, observed, sparse",
        [
            ((96, 363), 0.036, False),  # metro stream window
            ((96, 380), 0.036, False),  # largest e2e stream window
            ((96, 221), 0.28, False),  # downtown stream window
            ((672, 221), 0.20, False),  # paper scale
            ((672, 480), 0.15, False),  # shard-sized, above the ceiling
            ((672, 450), 0.032, True),  # metro-week shard
            ((672, 5812), 0.032, True),  # metro-week seed solve
        ],
    )
    def test_rule(self, shape, observed, sparse):
        mask = np.random.default_rng(0).random(shape) < observed
        assert completion._sparse_layout(mask.size, np.count_nonzero(mask)) is sparse
        kernel = _WorkspaceKernel(np.where(mask, 30.0, 0.0), mask, 100.0, 2)
        assert kernel.sparse is sparse

    @staticmethod
    def _traced(run):
        obs_trace.reset()
        obs_metrics.reset()
        obs_trace.enable()
        try:
            run()
            counters = obs_metrics.registry().snapshot()["counters"]
            spans = obs_trace.collector().snapshot()
        finally:
            obs_trace.disable()
            obs_trace.reset()
            obs_metrics.reset()
        layouts = [s.attrs["layout"] for s in spans if s.name == "als.complete"]
        return counters, layouts

    @pytest.mark.parametrize(
        "mask_aware, layout", [(True, "sparse"), (False, "dense")]
    )
    def test_signals(self, mask_aware, layout):
        # Literal mode binds an all-observed indicator: dense, whatever
        # the input's sparsity.
        mask = np.random.default_rng(1).random((672, 450)) < 0.03
        completer = CompressiveSensingCompleter(
            iterations=2, mask_aware=mask_aware, seed=0
        )
        counters, layouts = self._traced(
            lambda: completer.complete(np.where(mask, 30.0, 0.0), mask)
        )
        assert layouts == [layout]
        assert counters == {
            **{k: v for k, v in counters.items() if not k.startswith("als.binds")},
            f"als.binds_{layout}": 1.0,
        }

    def test_no_counters_when_off(self):
        mask = np.random.default_rng(2).random((672, 450)) < 0.03
        obs_metrics.reset()
        CompressiveSensingCompleter(iterations=1, seed=0).complete(
            np.where(mask, 30.0, 0.0), mask
        )
        assert obs_metrics.registry().snapshot()["counters"] == {}

    def test_sparse_matches_dense(self):
        # The two layouts sum each Gram and right-hand-side entry over
        # the same cells in a different order.
        rng = np.random.default_rng(3)
        mask = rng.random((672, 450)) < 0.03
        truth = _make_truth(672, 450, rng)
        measured = np.where(mask, truth, 0.0)
        results = {}
        for sparse in (False, True):
            with forced_layout(sparse):
                results[sparse] = CompressiveSensingCompleter(
                    iterations=8, center=True, seed=0
                ).complete(measured, mask)
        scale = float(np.abs(results[False].estimate).max())
        diff = float(np.abs(results[True].estimate - results[False].estimate).max())
        assert diff <= 1e-9 * scale
        assert results[True].objective == pytest.approx(
            results[False].objective, rel=1e-12
        )


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
