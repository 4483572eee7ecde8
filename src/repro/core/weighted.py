"""Confidence-weighted matrix completion (extension).

The paper treats every observed cell equally, but cells backed by one
probe report are far noisier than cells averaging dozens (Definition 1
approximates a mean by a sample average).  This extension generalizes
Algorithm 1's objective to

    || W .x (L R^T - M) ||_F^2 + lambda (||L||_F^2 + ||R||_F^2)

with a per-cell confidence weight matrix ``W`` (zero where unobserved),
solved by the same alternating scheme with *weighted* ridge
regressions.  :func:`weights_from_counts` derives the natural weights
from per-cell report counts: the variance of an n-sample average scales
as 1/n, so the (amplitude) weight grows like sqrt(n), capped to avoid a
few over-sampled downtown cells dominating the fit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.completion import (
    PAPER_ITERATIONS,
    PAPER_LAMBDA,
    PAPER_RANK,
    CompletionResult,
)
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_matrix_pair, check_positive


def weights_from_counts(counts: np.ndarray, cap: float = 5.0) -> np.ndarray:
    """Confidence weights from per-cell report counts.

    ``w = min(sqrt(count), cap)``; zero where no reports.  The square
    root matches inverse-standard-deviation weighting of sample means.
    """
    check_positive(cap, "cap")
    counts = np.asarray(counts, dtype=float)
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    return np.minimum(np.sqrt(counts), cap)


class ConfidenceWeightedCompleter:
    """Algorithm 1 with per-cell confidence weights.

    Parameters mirror :class:`CompressiveSensingCompleter`; ``complete``
    additionally takes the weight matrix.  Uniform weights over the
    observed cells reduce exactly to the unweighted algorithm.
    """

    def __init__(
        self,
        rank: int = PAPER_RANK,
        lam: float = PAPER_LAMBDA,
        iterations: int = PAPER_ITERATIONS,
        clip_min: Optional[float] = None,
        clip_max: Optional[float] = None,
        center: bool = False,
        seed: SeedLike = None,
    ) -> None:
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        if not 0 <= lam < np.inf:  # NaN fails both comparisons
            raise ValueError(f"lam must be finite and >= 0, got {lam}")
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        if clip_min is not None and clip_max is not None and clip_min > clip_max:
            raise ValueError("clip_min must not exceed clip_max")
        self.rank = rank
        self.lam = lam
        self.iterations = iterations
        self.clip_min = clip_min
        self.clip_max = clip_max
        self.center = center
        self._seed = seed

    def complete(
        self,
        values: np.ndarray,
        weights: np.ndarray,
    ) -> CompletionResult:
        """Complete ``values`` under confidence ``weights``.

        ``weights`` must be non-negative with the matrix's shape; cells
        with zero weight are treated as missing.
        """
        values = np.asarray(values, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if weights.shape != values.shape:
            raise ValueError(
                f"weights shape {weights.shape} != values shape {values.shape}"
            )
        if np.any(weights < 0):
            raise ValueError("weights must be non-negative")
        mask = weights > 0
        values, mask = check_matrix_pair(values, mask)
        if not mask.any():
            raise ValueError("no cells with positive weight")

        rng = ensure_rng(self._seed)
        m, n = values.shape
        r = min(self.rank, m, n)

        offset = 0.0
        work = np.where(mask, values, 0.0)
        if self.center:
            offset = float(work[mask].mean())
            work = np.where(mask, work - offset, 0.0)

        scale = float(np.abs(work[mask]).mean())
        left = rng.standard_normal((m, r)) * np.sqrt(max(scale, 1e-6) / r)

        best_obj = np.inf
        best_left, best_right = left, np.zeros((n, r))
        history = []
        w_sq = weights**2
        for _ in range(self.iterations):
            right = _weighted_ridge(left, work, w_sq, self.lam)
            left = _weighted_ridge(right, work.T, w_sq.T, self.lam)
            residual = np.where(mask, left @ right.T - work, 0.0)
            obj = float(np.sum(w_sq * residual**2)) + self.lam * float(
                np.sum(left**2) + np.sum(right**2)
            )
            history.append(obj)
            if obj < best_obj:
                best_obj, best_left, best_right = obj, left.copy(), right.copy()

        estimate = best_left @ best_right.T + offset
        if self.clip_min is not None or self.clip_max is not None:
            estimate = np.clip(estimate, self.clip_min, self.clip_max)
        return CompletionResult(
            estimate=estimate,
            left=best_left,
            right=best_right,
            objective=best_obj,
            objective_history=history,
        )


def _weighted_ridge(
    factor: np.ndarray, m_arr: np.ndarray, w_sq: np.ndarray, lam: float
) -> np.ndarray:
    """Per-column weighted ridge: (F^T D F + lam I) x = F^T D m.

    ``D`` is the diagonal of the column's squared weights; zero-weight
    rows drop out naturally.
    """
    m, r = factor.shape
    n = m_arr.shape[1]
    out = np.zeros((n, r))
    eye = lam * np.eye(r)
    for j in range(n):
        w = w_sq[:, j]
        rows = w > 0
        if not rows.any():
            continue
        f = factor[rows]
        wj = w[rows]
        gram = (f * wj[:, None]).T @ f + eye
        rhs = (f * wj[:, None]).T @ m_arr[rows, j]
        out[j] = np.linalg.solve(gram, rhs)
    return out
