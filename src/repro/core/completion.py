"""Algorithm 1: compressive-sensing estimation of the TCM (Section 3.3).

The estimate is the SVD-like factorization ``X_hat = L R^T`` (Eq. 14)
whose factors minimize the Lagrangian objective (Eq. 16)

    || B .x (L R^T) - M ||_F^2  +  lambda (||L||_F^2 + ||R||_F^2)

found by alternating least squares: fix ``L``, solve for ``R``; fix
``R``, solve for ``L``; repeat ``t`` times keeping the best iterate by
objective value (pseudocode lines 2-9).

Two inner formulations are provided:

* ``mask_aware=True`` (default) — each column of ``R`` solves a ridge
  regression restricted to the rows where that column of ``M`` is
  observed, i.e. the constraint really is ``B .x (L R^T) = M`` (Eq. 15).
  This is the solver of the SRMF work [37] the paper says its algorithm
  follows, and is the variant that actually recovers missing data well.
* ``mask_aware=False`` — the literal pseudocode: the stacked normal
  equations ``(L^T L + lambda I) R^T = L^T M`` of
  ``inverse([L; sqrt(lambda) I], [M; 0])``, treating missing entries as
  zeros.  That is exactly the masked system with every cell observed,
  so it runs on the same kernel bound to an all-observed indicator.
  Kept for fidelity comparisons; it biases estimates toward zero
  wherever data is missing.

Both run through one kernel, :class:`_WorkspaceKernel`, in the working
dtype :func:`resolve_dtype` picks.  float64 runs match the per-column
reference solve (``tests/solver_oracles.py``) within 1e-8 on the final
estimate; float32 runs stay within :data:`FLOAT32_RTOL` of float64,
relative to the estimate's magnitude.

``restarts > 1`` runs independent random initializations; with
``max_workers`` set they run concurrently (thread pool — the inner work
is LAPACK which releases the GIL).  Every restart's initialization is
drawn from the seed stream *before* dispatch, so results are
bit-identical whether restarts run serially or in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.tcm import TrafficConditionMatrix
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.utils.contracts import effects, hot_path, shapes
from repro.utils.parallel import parallel_map
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_matrix_pair

DTypeLike = Union[str, type, np.dtype, None]

PAPER_RANK = 2
PAPER_LAMBDA = 100.0
PAPER_ITERATIONS = 100

#: Working dtypes Algorithm 1 runs in.
SUPPORTED_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))

#: Relative tolerance for float32-vs-float64 estimate comparisons:
#: ``max |est32 - est64| <= FLOAT32_RTOL * max(1, max |est64|)``.  The
#: ALS solves are ridge-regularized (condition bounded by the data Gram
#: over ``lam``), so single precision loses a few of its ~7 digits over
#: a 60-sweep run; 1e-3 relative holds with two orders of margin on the
#: bench workloads while still catching any wrong-kernel bug outright.
FLOAT32_RTOL = 1e-3

# (best objective, L, R, per-sweep objective history) of one ALS run.
_RunOutcome = Tuple[float, np.ndarray, np.ndarray, List[float]]


@dataclass(frozen=True)
class CompletionResult:
    """Output of Algorithm 1.

    Attributes
    ----------
    estimate:
        ``X_hat = L_best R_best^T`` (every cell, observed or not).
    left, right:
        The best factors ``L`` (m x r) and ``R`` (n x r).
    objective:
        Best value of Eq. 16 reached (across all restarts).
    objective_history:
        Objective after every sweep **of the winning restart only**
        (length = that restart's sweeps).  Early-stop diagnostics should
        read this, not :attr:`iterations_run`.
    iterations_run:
        Total ALS sweeps **summed over every restart** (each may stop
        early on ``tol`` independently).  With ``restarts == 1`` this
        equals ``len(objective_history)``.
    restart_histories:
        Per-restart objective histories, in restart order; the winning
        restart's entry is :attr:`objective_history`.  Empty when the
        result was built by a caller that does not track restarts.
    best_restart:
        Index into :attr:`restart_histories` of the winning restart.
    """

    estimate: np.ndarray
    left: np.ndarray
    right: np.ndarray
    objective: float
    objective_history: List[float]
    iterations_run: int
    restart_histories: List[List[float]] = field(default_factory=list)
    best_restart: int = 0

    @property
    def rank_bound(self) -> int:
        return self.left.shape[1]

    @property
    def num_restarts(self) -> int:
        """Restarts tracked in this result (0 when untracked)."""
        return len(self.restart_histories)

    @shapes("m n", "m n:bool")
    def fused(self, measurements: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Estimate with observed cells replaced by their measurements."""
        measurements, mask = check_matrix_pair(measurements, mask)
        if measurements.shape != self.estimate.shape:
            raise ValueError("measurement shape mismatch")
        return np.where(mask, measurements, self.estimate)


def resolve_dtype(requested: DTypeLike, input_dtype: np.dtype) -> np.dtype:
    """The working dtype for a completion run.

    An explicit ``requested`` dtype wins.  Otherwise a float32 input is
    honored (a float32 matrix stays float32 end to end); anything else
    — float64, integers, lower-precision floats — resolves to float64.
    Raises ``ValueError`` for a requested dtype outside
    :data:`SUPPORTED_DTYPES`.
    """
    if requested is not None:
        dtype = np.dtype(requested)
    elif np.dtype(input_dtype) == np.dtype(np.float32):
        dtype = np.dtype(np.float32)
    else:
        dtype = np.dtype(np.float64)
    if dtype not in SUPPORTED_DTYPES:
        supported = ", ".join(str(d) for d in SUPPORTED_DTYPES)
        raise ValueError(
            f"Algorithm 1 does not support dtype {dtype} (supported: {supported})"
        )
    return dtype


class CompressiveSensingCompleter:
    """Algorithm 1 with the paper's default parameters (r=2, lambda=100).

    Parameters
    ----------
    rank:
        Rank bound ``r``: the number of columns of ``L`` and ``R``
        (Eq. 18 makes it an upper bound on ``rank(X_hat)``).
    lam:
        Tradeoff coefficient ``lambda`` of Eq. 16.  With ``lam=0`` a
        row or column observed in fewer than ``r`` cells has a singular
        ridge system, so :meth:`complete` rejects it up front; entirely
        unobserved rows and columns stay allowed (their factor rows are
        zero).
    iterations:
        ALS sweep count ``t``; the paper finds 100 sufficient for
        convergence on hundreds-by-hundreds matrices.
    mask_aware:
        Inner formulation choice (see module docstring).
    dtype:
        Working dtype policy (:func:`resolve_dtype`).  ``None``
        (default) honors the input: a float32 measurement matrix is
        completed in float32, anything else in float64.  Pass
        ``np.float32``/``np.float64`` to force a dtype (the input is
        cast once on entry).  The returned factors and estimate are in
        the working dtype.
    tol:
        Optional early-stop: halt when the objective improves by less
        than ``tol`` (relative) between sweeps.
    clip_min, clip_max:
        Optional bounds applied to the returned estimate (speeds are
        physical, so callers usually clip at 0).
    center:
        Subtract the observed cells' mean before factorizing and add it
        back after.  The Frobenius regularizer shrinks ``L R^T`` toward
        *zero*; with centering the shrinkage target becomes the mean
        observed speed, which keeps large ``lambda`` values sane on
        small or sparse matrices.  Off by default (the paper's
        pseudocode factorizes the raw measurements).
    restarts:
        Number of independent random initializations; the run with the
        lowest final objective wins.  ALS occasionally converges to a
        local minimum from an unlucky init; a few restarts make the
        solver robust at proportional cost.  Default 1 (the paper's
        single random init).
    max_workers:
        Run restarts on a thread pool of this size (``None``/``1`` =
        serial).  Results are bit-identical either way: every restart's
        random init is drawn from the seed stream before dispatch.
    seed:
        Random initialization of ``L`` (pseudocode line 1).
    """

    def __init__(
        self,
        rank: int = PAPER_RANK,
        lam: float = PAPER_LAMBDA,
        iterations: int = PAPER_ITERATIONS,
        mask_aware: bool = True,
        dtype: DTypeLike = None,
        tol: Optional[float] = None,
        clip_min: Optional[float] = None,
        clip_max: Optional[float] = None,
        center: bool = False,
        restarts: int = 1,
        max_workers: Optional[int] = None,
        seed: SeedLike = None,
    ) -> None:
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        if lam < 0:
            raise ValueError(f"lam must be >= 0, got {lam}")
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        if tol is not None and tol <= 0:
            raise ValueError(f"tol must be positive, got {tol}")
        if clip_min is not None and clip_max is not None and clip_min > clip_max:
            raise ValueError("clip_min must not exceed clip_max")
        if restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {restarts}")
        if max_workers is not None and max_workers < 0:
            raise ValueError(f"max_workers must be >= 0 or None, got {max_workers}")
        self.rank = rank
        self.lam = lam
        self.iterations = iterations
        self.mask_aware = mask_aware
        self.dtype: Optional[np.dtype] = (
            None if dtype is None else resolve_dtype(dtype, np.dtype(np.float64))
        )
        self.tol = tol
        self.clip_min = clip_min
        self.clip_max = clip_max
        self.center = center
        self.restarts = restarts
        self.max_workers = max_workers
        self._seed = seed

    # ------------------------------------------------------------------
    @effects(allow={"rng"})
    @shapes("m n", "m n:bool")
    def complete(
        self,
        measurements: Union[TrafficConditionMatrix, np.ndarray],
        mask: Optional[np.ndarray] = None,
    ) -> CompletionResult:
        """Run Algorithm 1 on a measurement matrix.

        Accepts either a :class:`TrafficConditionMatrix` or an explicit
        ``(M, B)`` array pair.
        """
        if isinstance(measurements, TrafficConditionMatrix):
            if mask is not None:
                raise ValueError("mask is implied by the TrafficConditionMatrix")
            m_arr, b_arr = measurements.values, measurements.mask
        else:
            if mask is None:
                raise ValueError("mask required when passing a raw array")
            m_arr, b_arr = check_matrix_pair(measurements, mask, dtype=None)
        if not b_arr.any():
            raise ValueError("measurement matrix has no observed entries")

        work_dtype = self.work_dtype(m_arr.dtype)
        if m_arr.dtype != work_dtype:
            m_arr = m_arr.astype(work_dtype)

        rng = ensure_rng(self._seed)
        m, n = m_arr.shape
        r = min(self.rank, m, n)

        # Zero the unobserved cells once.  The kernel's right-hand side
        # F^T M relies on it, the literal solver's documented behavior
        # is "missing entries are zeros", and hoisting the masking out
        # of the sweep loop removes a full m x n `np.where` per solve.
        # The masking stays in the working dtype, and when the caller
        # already zeroed the unobserved cells (synthetic pipelines
        # build M as `np.where(mask, truth, 0)`) the full-matrix copy
        # is skipped entirely.
        zero = work_dtype.type(0)
        offset = 0.0
        if self.center:
            offset = float(m_arr[b_arr].mean())
            m_arr = np.where(b_arr, m_arr - offset, zero)
        elif m_arr[~b_arr].any():
            m_arr = np.where(b_arr, m_arr, zero)

        # Line 1 of the pseudocode, once per restart: random init of L,
        # scaled to the data's magnitude so the first R-solve starts in
        # the right ballpark.  All inits are drawn from the seed stream
        # up front so the restart runs are order-independent — serial
        # and parallel execution produce bit-identical results.  Draws
        # happen in the generator's native float64 and are cast once,
        # so the working dtype cannot perturb the random stream.
        observed_scale = float(np.abs(m_arr[b_arr]).mean())
        init_scale = np.sqrt(max(observed_scale, 1e-6) / r)
        inits = [
            (rng.standard_normal((m, r)) * init_scale).astype(
                work_dtype, copy=False
            )
            for _ in range(self.restarts)
        ]

        # Indicator in the working dtype, cast once for all restarts and
        # shared (read-only) by the objective and every run's kernel.
        ind = b_arr.astype(work_dtype)
        with obs_trace.span(
            "als.complete",
            rows=m,
            cols=n,
            rank=r,
            dtype=work_dtype.name,
            restarts=self.restarts,
        ):
            runs: List[_RunOutcome] = parallel_map(
                lambda init: self._run_als(m_arr, ind, init),
                inits,
                max_workers=self.max_workers,
                backend="thread",
                span_name="als.restart",
            )

        best_idx = min(range(len(runs)), key=lambda i: runs[i][0])
        best_obj, best_left, best_right, _ = runs[best_idx]
        restart_histories = [history for _, _, _, history in runs]
        iterations_run = sum(len(h) for h in restart_histories)
        if obs_trace.enabled():
            obs_metrics.inc("als.completions")
            obs_metrics.inc("als.restarts", self.restarts)
            for history in restart_histories:
                obs_metrics.observe("als.iterations_to_convergence", len(history))
            obs_metrics.observe("als.objective", best_obj)

        return CompletionResult(
            estimate=self._estimate(best_left, best_right, offset),
            left=best_left,
            right=best_right,
            objective=best_obj,
            objective_history=restart_histories[best_idx],
            iterations_run=iterations_run,
            restart_histories=restart_histories,
            best_restart=best_idx,
        )

    def work_dtype(self, input_dtype: np.dtype) -> np.dtype:
        """Resolve the dtype the ALS sweep will run in.

        Explicit ``dtype=`` wins; otherwise a float32 input is honored
        and everything else runs in float64.  Exposed so streaming
        callers can cast warm-start factors consistently.
        """
        return resolve_dtype(self.dtype, input_dtype)

    # ------------------------------------------------------------------
    @shapes("m n", "m n", "m r")
    def _run_als(
        self, m_arr: np.ndarray, ind: np.ndarray, init: np.ndarray
    ) -> _RunOutcome:
        """One ALS run from the given init (pseudocode lines 2-9).

        ``m_arr`` is in the working dtype with unobserved cells zeroed
        and ``ind`` is the observation indicator in the same dtype.
        Returns ``(best objective, L, R, per-iteration objectives)``.
        Reads only; safe to run concurrently across restarts.  Each run
        binds its own kernel and owns its own objective residual buffer:
        the kernel reuses its buffers across sweeps, so neither may
        be shared between concurrently-running restarts.
        """
        left = init
        best_obj = np.inf
        best_left = left
        best_right = np.zeros((m_arr.shape[1], left.shape[1]), dtype=left.dtype)
        history: List[float] = []
        kernel = _WorkspaceKernel(
            m_arr,
            ind if self.mask_aware else np.ones_like(ind),
            self.lam,
            left.shape[1],
        )
        residual = np.empty_like(m_arr)
        for _ in range(self.iterations):
            right = kernel.solve_right(left)
            left = kernel.solve_left(right)
            obj = self._objective(left, right, m_arr, ind, residual)
            history.append(obj)
            if obj < best_obj:
                improvement = (best_obj - obj) / max(best_obj, 1e-12)
                best_obj, best_left, best_right = obj, left.copy(), right.copy()
                if (
                    self.tol is not None
                    and np.isfinite(improvement)
                    and improvement < self.tol
                ):
                    break
            elif self.tol is not None:
                break
        return best_obj, best_left, best_right, history

    def _estimate(
        self, left: np.ndarray, right: np.ndarray, offset: float = 0.0
    ) -> np.ndarray:
        """``L R^T`` plus the centering offset, clipped to the bounds."""
        estimate = left @ right.T + offset
        if self.clip_min is not None or self.clip_max is not None:
            estimate = np.clip(estimate, self.clip_min, self.clip_max)
        return estimate

    @effects("pure")
    @hot_path
    @shapes("m r", "n r", "m n", "m n", "m n")
    def _objective(
        self,
        left: np.ndarray,
        right: np.ndarray,
        m_arr: np.ndarray,
        ind: np.ndarray,
        residual: np.ndarray,
    ) -> float:
        """Eq. 16: masked fit residual plus Frobenius regularization.

        Runs entirely in the caller-owned ``residual`` buffer: one GEMM,
        two element-wise passes, one BLAS dot.  The dense GEMM beats a
        gather of the observed coordinates even at the paper's 20%
        integrity — fancy indexing pays per-element overhead that the
        contiguous kernels do not — and in float32 the whole pass moves
        half the bytes, which is where float32 earns its wall-clock win
        (the solves alone are too small to dominate).
        """
        # The residual buffer is caller-owned per ALS run; writing into
        # it is the point (no fresh m x n temporaries per sweep).
        np.matmul(left, right.T, out=residual)
        np.subtract(residual, m_arr, out=residual)
        np.multiply(residual, ind, out=residual)
        flat = residual.reshape(-1)
        fit = float(np.dot(flat, flat))
        reg = float(np.sum(left**2) + np.sum(right**2))
        return fit + self.lam * reg


def _observed_or_raise(counts: np.ndarray, label: str, rank: int) -> np.ndarray:
    """Indices with observations; reject any with fewer than ``rank``.

    Used at ``lam == 0`` only, where the ridge term no longer keeps
    ``G_j`` invertible: ``j`` observed in ``1..rank-1`` cells has a Gram
    of rank below ``rank``.  Entirely unobserved entries are excluded
    from the solve instead (their factor rows stay zero).
    """
    observed = np.flatnonzero(counts)
    short = observed[counts[observed] < rank]
    if short.size:
        j = int(short[0])
        raise ValueError(
            f"lam=0 with rank {rank}: {label} {j} is observed in only "
            f"{int(counts[j])} cell(s), so its ridge system is singular "
            f"({short.size} {label}(s) affected); use lam > 0 or a rank "
            f"of at most {int(counts[short].min())}"
        )
    return observed


class _WorkspaceKernel:
    """Algorithm 1's masked ridge solve, bound to one ALS run.

    ``solve_right`` solves the ``n`` column systems of ``M`` given the
    left factor (m x r) and returns the right factor (n x r);
    ``solve_left`` solves the ``m`` row systems given the right factor.
    For each column ``j`` of ``M`` (symmetrically for rows):

        G_j = F^T diag(B_{:, j}) F + lam I_r,    G_j x_j = F^T M_{:, j}.

    Binding hoists everything the sweep would otherwise re-derive: the
    ridge ``lam I``, the observed index sets (``lam == 0`` only), and
    the Gram / right-hand-side / output buffers, which are reused by
    every sweep.  ``M``, ``M^T``, the indicator and its transpose are
    *views* of the caller's arrays, so binding allocates only
    ``O((m + n) r^2)`` of workspace.  A sweep then performs one
    outer-product write, one GEMM into the Gram stack, one GEMM into the
    right-hand sides, and the solve.

    With ``lam > 0`` and ``r <= 2`` the stacked systems are solved in
    closed form (Cramer's rule) directly into the output buffer: the
    ridge makes every ``G_j`` symmetric positive definite with
    ``det(G_j) >= lam**r > 0``.  Larger ranks use one batched LAPACK
    ``gesv``.  With ``lam == 0`` entirely unobserved columns (rows) are
    excluded from the ``gesv`` stack and solve to zero; a column (row)
    observed in ``1..r-1`` cells is rejected at binding.

    ``m_arr`` must be zero on unobserved cells (Algorithm 1 zeroes its
    input on entry) and ``ind`` the indicator in ``m_arr``'s dtype.
    Buffers are reused across calls, so a kernel must stay on one
    thread (Algorithm 1 binds one per ALS run).
    """

    def __init__(
        self, m_arr: np.ndarray, ind: np.ndarray, lam: float, rank: int
    ) -> None:
        m, n = m_arr.shape
        dtype = m_arr.dtype
        self._lam = lam
        self._m = m_arr
        self._m_t = m_arr.T
        self._ind = ind
        self._ind_t = ind.T
        self._lam_eye = lam * np.eye(rank, dtype=dtype)
        self._observed_cols: Optional[np.ndarray] = None
        self._observed_rows: Optional[np.ndarray] = None
        if not lam > 0:
            self._observed_cols = _observed_or_raise(ind.sum(axis=0), "column", rank)
            self._observed_rows = _observed_or_raise(ind.sum(axis=1), "row", rank)
        # pairs_* hold the r*r outer products of the fixed factor's rows;
        # grams_* and rhs_* receive the GEMMs; out_* receive the solves.
        self._pairs_m = np.empty((m, rank * rank), dtype=dtype)
        self._pairs_n = np.empty((n, rank * rank), dtype=dtype)
        self._grams_n = np.empty((n, rank, rank), dtype=dtype)
        self._grams_m = np.empty((m, rank, rank), dtype=dtype)
        self._rhs_n = np.empty((rank, n), dtype=dtype)
        self._rhs_m = np.empty((rank, m), dtype=dtype)
        self._out_n = np.empty((n, rank), dtype=dtype)
        self._out_m = np.empty((m, rank), dtype=dtype)

    def solve_right(self, left: np.ndarray) -> np.ndarray:
        """R <- argmin of Eq. 16 with L fixed."""
        return self._solve_side(
            left,
            self._m,
            self._ind_t,
            self._observed_cols,
            self._pairs_m,
            self._grams_n,
            self._rhs_n,
            self._out_n,
        )

    def solve_left(self, right: np.ndarray) -> np.ndarray:
        """L <- argmin of Eq. 16 with R fixed (by transposition symmetry)."""
        return self._solve_side(
            right,
            self._m_t,
            self._ind,
            self._observed_rows,
            self._pairs_n,
            self._grams_m,
            self._rhs_m,
            self._out_m,
        )

    @effects("pure")
    @hot_path
    def _solve_side(
        self,
        factor: np.ndarray,
        m_side: np.ndarray,
        ind_gram: np.ndarray,
        observed: Optional[np.ndarray],
        pairs: np.ndarray,
        grams: np.ndarray,
        rhs: np.ndarray,
        out: np.ndarray,
    ) -> np.ndarray:
        """One factor update using the preallocated workspace.

        ``ind_gram`` is the indicator oriented so that
        ``ind_gram @ pairs`` stacks the Gram matrices of ``m_side``'s
        columns; ``observed`` lists those columns' observed indices
        (``None`` when ``lam > 0``); ``pairs``/``grams``/``rhs``/``out``
        are this side's buffers.
        """
        k, r = factor.shape
        cols = m_side.shape[1]
        np.multiply(
            factor[:, :, None],
            factor[:, None, :],
            out=pairs.reshape(k, r, r),
        )
        np.matmul(ind_gram, pairs, out=grams.reshape(cols, r * r))
        # Writing the ridge into the preallocated Gram buffer is the
        # point of the workspace (no fresh allocation per sweep).
        # repro-lint: disable-next-line=param-mutation
        grams += self._lam_eye
        np.matmul(factor.T, m_side, out=rhs)
        if observed is not None:
            # lam == 0: all-unobserved systems are singular; they are
            # left out of the stack and solve to zero.
            zeroed = np.zeros_like(out)
            if observed.size:
                zeroed[observed] = np.linalg.solve(
                    grams[observed], rhs.T[observed, :, None]
                )[:, :, 0]
            return zeroed
        if r == 1:
            np.divide(rhs[0], grams[:, 0, 0], out=out[:, 0])
            return out
        if r == 2:
            # Closed-form SPD solve; det >= lam**2 keeps it non-singular.
            a = grams[:, 0, 0]
            b = grams[:, 0, 1]
            c = grams[:, 1, 0]
            d = grams[:, 1, 1]
            det = a * d - b * c
            np.divide(d * rhs[0] - b * rhs[1], det, out=out[:, 0])
            np.divide(a * rhs[1] - c * rhs[0], det, out=out[:, 1])
            return out
        solved: np.ndarray = np.linalg.solve(grams, rhs.T[:, :, None])[:, :, 0]
        return solved
