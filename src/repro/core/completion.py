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

from dataclasses import dataclass, field, replace
from typing import List, NamedTuple, Optional, Tuple, Union

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

# The kernel's sparse layout (observed cells only, in CSR form) is bound
# when the matrix has at least SPARSE_MIN_CELLS cells and at most
# SPARSE_MAX_OBSERVED of them are observed; everything else binds the
# dense layout.  Bind (from a boolean mask) plus sweeps, r = 2,
# lam = 100, float64, min of 3 x 7 runs, one core of a 2-CPU VM with
# single-threaded OpenBLAS:
#
#   shape, observed                      sweeps   dense      sparse
#   metro stream window 96 x 363, 3.6%       3     0.36 ms    0.78 ms
#   downtown stream window 96 x 221, 28%     3     0.28 ms    1.08 ms
#   paper scale 672 x 221, 20%              60    20.9 ms    39.4 ms
#   672 x 480, 5%                            8     9.50 ms    4.68 ms
#   672 x 480, 11%                           8     8.43 ms    7.07 ms
#   672 x 480, 15%                           8     9.79 ms    9.83 ms
#   metro-week shard 672 x 450, 3.2%         8     9.36 ms    3.40 ms
#   metro-week seed 672 x 5,812, 3.2%        5   151 ms      24.7 ms
#
# The layouts break even near 15% observed on shard-sized matrices and
# nearer 5% close to the floor (672 x 221: 2.81 ms dense, 2.36 ms
# sparse at 5%; 2.88 against 3.40 ms at 10%); below it the sparse
# product's per-call cost loses at any density.  Every stream window
# (the largest is 96 x 380 = 36,480 cells) stays dense.
SPARSE_MIN_CELLS = 131_072
SPARSE_MAX_OBSERVED = 0.10

# (best objective, L, R, per-sweep objective history) of one ALS run.
_RunOutcome = Tuple[float, np.ndarray, np.ndarray, List[float]]


class _Fit(NamedTuple):
    """Algorithm 1's winning factors and run record, before ``L R^T``."""

    objective: float
    left: np.ndarray
    right: np.ndarray
    offset: float
    restart_histories: List[List[float]]
    best_restart: int


@dataclass(frozen=True)
class ObservedCells:
    """An ``(m, n)`` matrix given by its observed cells alone.

    The cells run row by row, columns ascending within a row (row-major
    order): cell ``k`` is ``values[k]`` at ``(rows[k], cols[k])``, and
    every other cell is unobserved.  This is the form the kernel's
    sparse layout binds from (:class:`_WorkspaceKernel`), so a caller
    that already holds the cells (:class:`repro.scale.ShardedEstimator`
    does) hands them over without an (m, n) pass.
    """

    shape: Tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @classmethod
    def of(cls, m_arr: np.ndarray, ind: np.ndarray) -> "ObservedCells":
        """The cells of ``m_arr`` that the indicator ``ind`` marks."""
        rows, cols = np.divmod(np.flatnonzero(ind), m_arr.shape[1])
        return cls(m_arr.shape, rows, cols, m_arr[rows, cols])

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    def astype(self, dtype: np.dtype) -> "ObservedCells":
        """The same cells with their values in ``dtype``."""
        return replace(self, values=self.values.astype(dtype, copy=False))

    def dense(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(M, B)``: the cells scattered into zeroed ``(m, n)`` arrays."""
        m_arr = np.zeros(self.shape, dtype=self.values.dtype)
        m_arr[self.rows, self.cols] = self.values
        mask = np.zeros(self.shape, dtype=bool)
        mask[self.rows, self.cols] = True
        return m_arr, mask


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
        measurements: Union[TrafficConditionMatrix, np.ndarray, ObservedCells],
        mask: Optional[np.ndarray] = None,
    ) -> CompletionResult:
        """Run Algorithm 1 on a measurement matrix.

        Accepts a :class:`TrafficConditionMatrix`, an explicit ``(M, B)``
        array pair, or the matrix's :class:`ObservedCells` (see
        :meth:`_fit`).
        """
        fit = self._fit(measurements, mask)
        return CompletionResult(
            estimate=self._estimate(fit.left, fit.right, fit.offset),
            left=fit.left,
            right=fit.right,
            objective=fit.objective,
            objective_history=fit.restart_histories[fit.best_restart],
            iterations_run=sum(len(h) for h in fit.restart_histories),
            restart_histories=fit.restart_histories,
            best_restart=fit.best_restart,
        )

    @effects(allow={"rng"})
    def _fit(
        self,
        measurements: Union[TrafficConditionMatrix, np.ndarray, ObservedCells],
        mask: Optional[np.ndarray] = None,
    ) -> "_Fit":
        """:meth:`complete` up to, not including, forming ``L R^T``.

        Also takes the matrix as :class:`ObservedCells`, whose values
        must be finite.  A sparse-layout solve (:func:`_sparse_layout`)
        then runs on the cells alone; any other scatters them first.
        """
        cells: Optional[ObservedCells] = None
        if isinstance(measurements, ObservedCells):
            if mask is not None:
                raise ValueError("mask is implied by the observed cells")
            cells = measurements
            if not np.isfinite(cells.values).all():
                raise ValueError("observed entries must be finite")
            (m, n), count = cells.shape, cells.values.size
        else:
            if isinstance(measurements, TrafficConditionMatrix):
                if mask is not None:
                    raise ValueError("mask is implied by the TrafficConditionMatrix")
                # Read-only views (nothing below writes to them), laid
                # out C-ordered as the kernel's products expect.
                m_arr = np.ascontiguousarray(measurements.values_view)
                b_arr = np.ascontiguousarray(measurements.mask_view)
            else:
                if mask is None:
                    raise ValueError("mask required when passing a raw array")
                m_arr, b_arr = check_matrix_pair(measurements, mask, dtype=None)
            (m, n), count = m_arr.shape, int(np.count_nonzero(b_arr))
        if not count:
            raise ValueError("measurement matrix has no observed entries")

        # A sparse-layout run reads the observed cells only, taken once
        # here for every restart; a dense one reads (m, n) arrays, with
        # the indicator cast to the working dtype once.
        sparse = self.mask_aware and _sparse_layout(m * n, count)
        if sparse and cells is None:
            cells = ObservedCells.of(m_arr, b_arr)
        elif not sparse and cells is not None:
            m_arr, b_arr = cells.dense()
            cells = None

        # The observed values, gathered once for the centring mean and
        # the init scale.
        if cells is not None:
            work_dtype = self.work_dtype(cells.dtype)
            cells = cells.astype(work_dtype)
            observed = cells.values
        else:
            work_dtype = self.work_dtype(m_arr.dtype)
            if m_arr.dtype != work_dtype:
                m_arr = m_arr.astype(work_dtype)
            observed = m_arr[b_arr]

        rng = ensure_rng(self._seed)
        r = min(self.rank, m, n)

        # Zero the unobserved cells once.  The dense kernel's right-hand
        # side F^T M relies on it, the literal solver's documented
        # behavior is "missing entries are zeros", and hoisting the
        # masking out of the sweep loop removes a full m x n `np.where`
        # per solve.  The masking stays in the working dtype, and when
        # the caller already zeroed the unobserved cells (synthetic
        # pipelines build M as `np.where(mask, truth, 0)`: the matrix
        # then has no nonzero beyond the observed ones, NaN counting as
        # nonzero) the full-matrix copy is skipped entirely.
        zero = work_dtype.type(0)
        offset = 0.0
        if self.center:
            offset = float(observed.mean())
            observed = observed - offset
            if cells is not None:
                cells = replace(cells, values=observed)
            else:
                m_arr = np.where(b_arr, m_arr - offset, zero)
        elif cells is None and np.count_nonzero(m_arr) != np.count_nonzero(
            observed
        ):
            m_arr = np.where(b_arr, m_arr, zero)
        if cells is not None:
            matrix, ind = cells, None
        else:
            matrix, ind = m_arr, b_arr.astype(work_dtype)

        # Line 1 of the pseudocode, once per restart: random init of L,
        # scaled to the data's magnitude so the first R-solve starts in
        # the right ballpark.  All inits are drawn from the seed stream
        # up front so the restart runs are order-independent — serial
        # and parallel execution produce bit-identical results.  Draws
        # happen in the generator's native float64 and are cast once,
        # so the working dtype cannot perturb the random stream.
        observed_scale = float(np.abs(observed).mean())
        init_scale = np.sqrt(max(observed_scale, 1e-6) / r)
        inits = [
            (rng.standard_normal((m, r)) * init_scale).astype(
                work_dtype, copy=False
            )
            for _ in range(self.restarts)
        ]

        with obs_trace.span(
            "als.complete",
            rows=m,
            cols=n,
            rank=r,
            dtype=work_dtype.name,
            restarts=self.restarts,
            layout="sparse" if sparse else "dense",
        ):
            runs: List[_RunOutcome] = parallel_map(
                lambda init: self._run_als(matrix, ind, init),
                inits,
                max_workers=self.max_workers,
                span_name="als.restart",
            )

        best_idx = min(range(len(runs)), key=lambda i: runs[i][0])
        best_obj, best_left, best_right, _ = runs[best_idx]
        restart_histories = [history for _, _, _, history in runs]
        if obs_trace.enabled():
            obs_metrics.inc("als.completions")
            obs_metrics.inc("als.restarts", self.restarts)
            for history in restart_histories:
                obs_metrics.observe("als.iterations_to_convergence", len(history))
            obs_metrics.observe("als.objective", best_obj)
        return _Fit(best_obj, best_left, best_right, offset, restart_histories, best_idx)

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
        self,
        m_arr: Union[np.ndarray, ObservedCells],
        ind: Optional[np.ndarray],
        init: np.ndarray,
    ) -> _RunOutcome:
        """One ALS run from the given init (pseudocode lines 2-9).

        ``m_arr`` is in the working dtype with unobserved cells zeroed
        (a sparse-layout bind reads observed cells only) and ``ind`` is
        the observation indicator, boolean or in the same dtype; or, for
        a mask-aware run, ``m_arr`` is the matrix's :class:`ObservedCells`
        in the working dtype and ``ind`` is ``None`` (see
        :class:`_WorkspaceKernel`).
        Returns ``(best objective, L, R, per-iteration objectives)``.
        Reads only; safe to run concurrently across restarts.  Each run
        binds its own kernel, which reuses its buffers across sweeps, so
        a kernel is never shared between concurrently-running restarts.

        Each sweep's objective is read off the kernel's normal equations
        (:meth:`_WorkspaceKernel.objective`) at O((m + n) r) cost.
        Literal mode solves the unmasked system while Eq. 16 stays
        masked, so only it evaluates :meth:`_objective` directly, in a
        residual buffer this run owns.
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
        residual = None if self.mask_aware else np.empty_like(m_arr)
        for _ in range(self.iterations):
            right = kernel.solve_right(left)
            left = kernel.solve_left(right)
            if residual is None:
                obj = kernel.objective(left, right)
            else:
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
        estimate = left @ right.T
        estimate += offset
        if self.clip_min is not None or self.clip_max is not None:
            np.clip(estimate, self.clip_min, self.clip_max, out=estimate)
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

        The direct evaluation, used by literal mode only (mask-aware
        runs read the objective off the kernel's normal equations).
        Runs entirely in the caller-owned ``residual`` buffer: one GEMM,
        two element-wise passes, one BLAS dot.
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


def _sparse_layout(cells: int, observed: int) -> bool:
    """Whether a kernel bound to a matrix stores its observed cells only.

    True for a matrix of at least :data:`SPARSE_MIN_CELLS` cells with
    at most :data:`SPARSE_MAX_OBSERVED` of them observed.
    """
    return cells >= SPARSE_MIN_CELLS and bool(observed <= SPARSE_MAX_OBSERVED * cells)


class _WorkspaceKernel:
    """Algorithm 1's masked ridge solve, bound to one ALS run.

    ``solve_right`` solves the ``n`` column systems of ``M`` given the
    left factor (m x r) and returns the right factor (n x r);
    ``solve_left`` solves the ``m`` row systems given the right factor.
    For each column ``j`` of ``M`` (symmetrically for rows):

        G_j = F^T diag(B_{:, j}) F + lam I_r,    G_j x_j = F^T M_{:, j}.

    Binding hoists everything the sweep would otherwise re-derive: the
    ridge ``lam I``, the observed index sets (``lam == 0`` only),
    ``||M||_F^2``, and the Gram / right-hand-side / output buffers,
    which are reused by every sweep.  A sweep performs one outer-product
    write, one product into the Gram stack (the indicator times the
    outer products), one into the right-hand sides — ``M^T L`` (n x r)
    and ``M R`` (m x r), one row per system — and the solve.

    The two products run in one of two layouts, picked at binding by
    :func:`_sparse_layout` from the matrix size and its observed-cell
    count, whichever form the matrix arrives in — ``(M, B)`` arrays or
    :class:`ObservedCells` (``ind`` is then ``None``):

    * **dense** — ``M``, ``M^T``, the indicator and its transpose are
      *views* of the caller's arrays (the indicator is cast to the
      working dtype unless it already is), and the products are GEMMs
      over all ``m n`` cells, oriented so BLAS reads ``M`` in its stored
      order.  Binding allocates only ``O((m + n) r^2)`` of workspace.
    * **sparse** — only the observed cells are stored, as CSR matrices
      of ``M``, ``M^T``, the indicator and its transpose (O(observed)
      arrays, no (m, n) copy), and the products are sparse-times-dense,
      so a half-sweep costs ``O(observed r^2)``.  There is one bind, from
      the cells; arrays reach it through :meth:`ObservedCells.of`, so
      the pattern is the indicator's, never ``M != 0``: an observed cell
      whose value is 0 stays observed.  ``scipy.sparse`` is imported
      only here, so processes that never bind this layout do not load
      it.

    Cells bound in the dense layout are first scattered into zeroed
    arrays (:meth:`ObservedCells.dense`).

    Right after :meth:`solve_left`, every row of ``L`` solves its own
    ridge system exactly, so :meth:`objective` reads Eq. 16 off the
    normal equations instead of forming ``L R^T``.

    With ``lam > 0`` and ``r <= 2`` the stacked systems are solved in
    closed form (Cramer's rule) directly into the output buffer: the
    ridge makes every ``G_j`` symmetric positive definite with
    ``det(G_j) >= lam**r > 0``.  Larger ranks use one batched LAPACK
    ``gesv``.  With ``lam == 0`` entirely unobserved columns (rows) are
    excluded from the ``gesv`` stack and solve to zero; a column (row)
    observed in ``1..r-1`` cells is rejected at binding.

    The dense layout needs ``m_arr`` zero on unobserved cells (Algorithm
    1 zeroes its input on entry); the sparse one reads observed cells
    only.  ``ind`` is the indicator, boolean or in ``m_arr``'s dtype.
    Buffers are reused across calls, so a kernel must stay on one thread
    (Algorithm 1 binds one per ALS run).
    """

    def __init__(
        self,
        m_arr: Union[np.ndarray, ObservedCells],
        ind: Optional[np.ndarray],
        lam: float,
        rank: int,
    ) -> None:
        m, n = m_arr.shape
        dtype = m_arr.dtype
        self._lam = lam
        if isinstance(m_arr, ObservedCells):
            cells: Optional[ObservedCells] = m_arr
            self.sparse = _sparse_layout(m * n, m_arr.values.size)
            if not self.sparse:
                m_arr, ind = m_arr.dense()
        else:
            cells = None
            self.sparse = _sparse_layout(m * n, int(np.count_nonzero(ind)))
        if self.sparse:
            self._bind_sparse(
                cells if cells is not None else ObservedCells.of(m_arr, ind)
            )
        else:
            ind = ind.astype(dtype, copy=False)
            self._m = m_arr
            self._m_t = m_arr.T
            self._ind = ind
            self._ind_t = ind.T
            flat = m_arr.reshape(-1).astype(np.float64, copy=False)
            self._m_sq = float(np.dot(flat, flat))
        if obs_trace.enabled():
            obs_metrics.inc("als.binds_sparse" if self.sparse else "als.binds_dense")
        self._lam_eye = lam * np.eye(rank, dtype=dtype)
        self._observed_cols: Optional[np.ndarray] = None
        self._observed_rows: Optional[np.ndarray] = None
        if not lam > 0:
            # Observed cells per column and per row: the CSR row lengths
            # of M^T and M in the sparse layout.
            if self.sparse:
                col_counts = np.diff(self._m_t.indptr)
                row_counts = np.diff(self._m.indptr)
            else:
                col_counts = np.count_nonzero(ind, axis=0)
                row_counts = np.count_nonzero(ind, axis=1)
            self._observed_cols = _observed_or_raise(col_counts, "column", rank)
            self._observed_rows = _observed_or_raise(row_counts, "row", rank)
        # pairs_* hold the r*r outer products of the fixed factor's rows;
        # grams_* and rhs_* receive the GEMMs; out_* receive the solves.
        self._pairs_m = np.empty((m, rank * rank), dtype=dtype)
        self._pairs_n = np.empty((n, rank * rank), dtype=dtype)
        self._grams_n = np.empty((n, rank, rank), dtype=dtype)
        self._grams_m = np.empty((m, rank, rank), dtype=dtype)
        self._rhs_n = np.empty((n, rank), dtype=dtype)
        self._rhs_m = np.empty((m, rank), dtype=dtype)
        self._out_n = np.empty((n, rank), dtype=dtype)
        self._out_m = np.empty((m, rank), dtype=dtype)

    def _bind_sparse(self, cells: ObservedCells) -> None:
        """Bind the observed cells of ``M`` and the indicator as CSR matrices."""
        from scipy.sparse import csr_matrix

        m, n = cells.shape
        # The cells run row by row, columns ascending: CSR order.
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(cells.rows, minlength=m), out=indptr[1:])
        data = cells.values
        self._m = csr_matrix((data, cells.cols, indptr), shape=(m, n))
        # A structural transpose: explicit zeros are kept.
        self._m_t = self._m.T.tocsr()
        ones = np.ones(data.size, dtype=data.dtype)
        self._ind = csr_matrix((ones, self._m.indices, self._m.indptr), shape=(m, n))
        self._ind_t = csr_matrix(
            (ones, self._m_t.indices, self._m_t.indptr), shape=(n, m)
        )
        flat = data.astype(np.float64, copy=False)
        self._m_sq = float(np.dot(flat, flat))

    def solve_right(self, left: np.ndarray) -> np.ndarray:
        """R <- argmin of Eq. 16 with L fixed."""
        return self._solve_side(
            left,
            self._m_t,
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
            self._m,
            self._ind,
            self._observed_rows,
            self._pairs_n,
            self._grams_m,
            self._rhs_m,
            self._out_m,
        )

    def objective(self, left: np.ndarray, right: np.ndarray) -> float:
        """Eq. 16 at ``(left, right)``, where ``left = solve_left(right)``.

        Each row ``L_i`` minimizes its own ridge system
        ``G_i L_i = b_i`` with ``b = M R`` (the right-hand side the
        left solve just built), so its masked fit plus ridge is
        ``||M_i||^2 - b_i . L_i``.  Summed over rows:

            Eq. 16 = ||M||_F^2 - <M R, L>_F + lam ||R||_F^2.

        O((m + n) r), accumulated in float64; valid for the mask-aware
        system only (literal mode solves a different one).  Rounding
        error scales with ``||M||_F^2``, not with the objective: on exact
        low-rank data at ``lam=1e-6``, where the objective is ~3e-8 of
        ``||M||_F^2``, it still agrees with a direct evaluation to 1e-8.
        """
        rhs = self._rhs_m.reshape(-1).astype(np.float64, copy=False)
        fitted = left.reshape(-1).astype(np.float64, copy=False)
        flat = right.reshape(-1).astype(np.float64, copy=False)
        return (
            self._m_sq
            - float(np.dot(rhs, fitted))
            + self._lam * float(np.dot(flat, flat))
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

        ``m_side @ factor`` is this side's right-hand side, one row per
        system; ``ind_gram`` is the indicator oriented so that
        ``ind_gram @ pairs`` stacks the matching Gram matrices (both
        dense arrays or both CSR matrices, per the bound layout);
        ``observed`` lists the observed systems (``None`` when
        ``lam > 0``); ``pairs``/``grams``/``rhs``/``out`` are this
        side's buffers.
        """
        k, r = factor.shape
        cols = m_side.shape[0]
        np.multiply(
            factor[:, :, None],
            factor[:, None, :],
            out=pairs.reshape(k, r, r),
        )
        # Writing the products and the ridge into the preallocated
        # buffers is the point of the workspace.
        if self.sparse:
            # The sparse products return fresh O((m + n) r^2) arrays.
            grams.reshape(cols, r * r)[...] = ind_gram @ pairs
            # repro-lint: disable-next-line=param-mutation
            rhs[...] = m_side @ factor
        else:
            np.matmul(ind_gram, pairs, out=grams.reshape(cols, r * r))
            np.matmul(m_side, factor, out=rhs)
        # repro-lint: disable-next-line=param-mutation
        grams += self._lam_eye
        if observed is not None:
            # lam == 0: all-unobserved systems are singular; they are
            # left out of the stack and solve to zero.
            zeroed = np.zeros_like(out)
            if observed.size:
                zeroed[observed] = np.linalg.solve(
                    grams[observed], rhs[observed, :, None]
                )[:, :, 0]
            return zeroed
        if r == 1:
            np.divide(rhs[:, 0], grams[:, 0, 0], out=out[:, 0])
            return out
        if r == 2:
            # Closed-form SPD solve; det >= lam**2 keeps it non-singular.
            a = grams[:, 0, 0]
            b = grams[:, 0, 1]
            c = grams[:, 1, 0]
            d = grams[:, 1, 1]
            det = a * d - b * c
            np.divide(d * rhs[:, 0] - b * rhs[:, 1], det, out=out[:, 0])
            np.divide(a * rhs[:, 1] - c * rhs[:, 0], det, out=out[:, 1])
            return out
        solved: np.ndarray = np.linalg.solve(grams, rhs[:, :, None])[:, :, 0]
        return solved
