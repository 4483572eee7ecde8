"""Loop reference implementations of the vectorized baselines.

:class:`~repro.baselines.correlation_knn.CorrelationKNN` and
:class:`~repro.baselines.mssa.MSSA` must agree with these to
floating-point accumulation order.  Each subclass swaps the vectorized
kernel for a plain per-row or per-channel loop, which is slow but easy
to read, so they serve as test oracles only.
"""

from typing import Dict, Tuple

import numpy as np
from scipy.sparse.linalg import svds

from repro.baselines.correlation_knn import CorrelationKNN
from repro.baselines.mssa import MSSA


class LoopCorrelationKNN(CorrelationKNN):
    """Correlation KNN filled one row at a time (Eq. 20-21 per row)."""

    def _complete_rows(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        m = values.shape[0]
        estimate = values.copy()
        corr_cache: Dict[Tuple[int, int], float] = {}
        filled_mask = mask.copy()
        for i in range(m):
            missing = ~mask[i]
            if not missing.any():
                continue
            neighbours = [i + d for d in self._offsets() if 0 <= i + d < m]
            if not neighbours:
                continue
            weights = np.array(
                [self._row_correlation(values, mask, i, k, corr_cache) for k in neighbours]
            )
            # Eq. 21 over all missing columns of row i: weigh each
            # neighbour row's value where that neighbour observed it.
            w_col = weights[:, None] * mask[neighbours]
            denom = w_col.sum(axis=0)
            numer = (w_col * values[neighbours]).sum(axis=0)
            fillable = missing & (denom > 0)
            estimate[i, fillable] = numer[fillable] / denom[fillable]
            filled_mask[i, fillable] = True
        return self._fallback_fill(estimate, filled_mask)

    def _row_correlation(self, values, mask, i, k, cache):
        """|Pearson correlation| of rows ``i`` and ``k`` on co-observed cells."""
        key = (min(i, k), max(i, k))
        if key in cache:
            return cache[key]
        both = mask[i] & mask[k]
        corr = 0.1  # neutral weight when correlation is unavailable
        if int(both.sum()) >= self.min_overlap:
            a, b = values[i, both], values[k, both]
            if a.std() > 0 and b.std() > 0:
                corr = abs(float(np.corrcoef(a, b)[0, 1]))
                if not np.isfinite(corr):
                    corr = 0.1
        cache[key] = corr
        return corr


def diagonal_average(block: np.ndarray, length: int) -> np.ndarray:
    """Invert one channel's Hankel embedding by averaging anti-diagonals.

    ``block[i, k]`` contributes to series position ``i + k``; every
    position averages all its contributions.
    """
    rows, window = block.shape
    sums = np.zeros(length)
    counts = np.zeros(length)
    positions = (np.arange(rows)[:, None] + np.arange(window)[None, :]).ravel()
    np.add.at(sums, positions, block.ravel())
    np.add.at(counts, positions, 1.0)
    counts[counts == 0] = 1.0
    return sums / counts


class LoopMSSA(MSSA):
    """MSSA that embeds and reconstructs one channel at a time."""

    def _mssa_reconstruct(self, filled: np.ndarray, window: int) -> np.ndarray:
        m, n = filled.shape
        rows = m - window + 1
        idx = np.arange(rows)[:, None] + np.arange(window)[None, :]
        trajectory = np.empty((rows, n * window))
        for j in range(n):
            trajectory[:, j * window : (j + 1) * window] = filled[idx, j]
        k = min(self.components, min(trajectory.shape) - 1)
        if k < 1:
            return filled
        if self.solver == "covariance":
            _, vectors = np.linalg.eigh(trajectory.T @ trajectory)
            v_k = vectors[:, -k:]
            smoothed = (trajectory @ v_k) @ v_k.T
        else:
            u, s, vt = svds(trajectory, k=k)
            smoothed = (u * s) @ vt
        out = np.empty_like(filled)
        for j in range(n):
            out[:, j] = diagonal_average(smoothed[:, j * window : (j + 1) * window], m)
        return out
