"""Correlation-based KNN (Section 4.2.2, Eq. 20-21).

For a missing cell ``(i, j)`` the estimate averages the values of the
*immediate* neighbouring rows (``i +/- 1, i +/- 2``) in the same column,
weighting each candidate row ``k`` by its normalized absolute Pearson
correlation with row ``i``:

    w_{i,k} = |C_{i,k}| / sum_{t = i+/-1, i+/-2} |C_{i,t}|        (Eq. 20)
    x_{i,j} = sum_{k = i+/-1, i+/-2} x_{k,j} w_{i,k}              (Eq. 21)

Correlations are computed on the cells both rows observe.  Cells the
row neighbourhood cannot explain (no observed neighbour in the column)
fall back to nearest-neighbour filling so the estimate is total.  The
same machinery runs over columns when ``axis="columns"``.

Every needed row-pair correlation comes from one masked two-pass sweep
per lag — the pair ``(i, i+h)`` for all ``i`` at once — and all rows
are filled with one broadcast weighted average.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.baselines.knn import NaiveKNN
from repro.utils.contracts import shapes
from repro.utils.validation import check_matrix_pair


class CorrelationKNN:
    """Correlation-weighted neighbour-row interpolation (paper K=4).

    Parameters
    ----------
    k:
        Number of neighbouring rows considered; the paper's K=4 means
        the rows at offsets -2, -1, +1, +2.
    axis:
        ``"rows"`` (paper's running example) weighs neighbouring time
        slots; ``"columns"`` weighs neighbouring segments.
    min_overlap:
        Minimum co-observed cells for a meaningful correlation; row
        pairs below it get a neutral small weight.
    """

    name = "correlation-knn"

    def __init__(
        self,
        k: int = 4,
        axis: str = "rows",
        min_overlap: int = 3,
    ):
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
        if axis not in ("rows", "columns"):
            raise ValueError(f"axis must be 'rows' or 'columns', got {axis!r}")
        if min_overlap < 2:
            raise ValueError(f"min_overlap must be >= 2, got {min_overlap}")
        self.k = k
        self.axis = axis
        self.min_overlap = min_overlap
        self._fallback = NaiveKNN(k=k)

    @shapes("m n", "m n:bool", finite=("values",))
    def complete(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Fill every missing cell (correlation rule + KNN fallback)."""
        values, mask = check_matrix_pair(values, mask)
        if self.axis == "columns":
            return self._complete_rows(values.T, mask.T).T
        return self._complete_rows(values, mask)

    # ------------------------------------------------------------------
    def _offsets(self) -> List[int]:
        """Neighbour offsets: +/-1 .. +/-(k//2)."""
        half = self.k // 2
        return [d for d in range(-half, half + 1) if d != 0]

    def _complete_rows(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        m, n = values.shape
        estimate = values.copy()
        filled_mask = mask.copy()

        offsets = self._offsets()
        # Pair correlations are symmetric, so one sweep per lag h serves
        # both the +h and -h offsets of every row.
        lag_corr = {
            h: _lagged_correlations(values, mask, h, self.min_overlap)
            for h in sorted({abs(d) for d in offsets})
        }

        numer = np.zeros((m, n), dtype=np.float64)
        denom = np.zeros((m, n), dtype=np.float64)
        for d in offsets:
            h = abs(d)
            corr = lag_corr[h]
            if corr.size == 0:
                continue
            # Weight of neighbour i+d for row i; rows whose neighbour
            # falls outside the matrix contribute nothing.
            w = np.zeros(m, dtype=np.float64)
            neigh_vals = np.zeros((m, n), dtype=np.float64)
            neigh_mask = np.zeros((m, n), dtype=bool)
            if d > 0:
                w[: m - h] = corr
                neigh_vals[: m - h] = values[h:]
                neigh_mask[: m - h] = mask[h:]
            else:
                w[h:] = corr
                neigh_vals[h:] = values[: m - h]
                neigh_mask[h:] = mask[: m - h]
            w_col = w[:, None] * neigh_mask
            denom += w_col
            numer += w_col * neigh_vals

        fillable = ~mask & (denom > 0)
        estimate[fillable] = numer[fillable] / denom[fillable]
        filled_mask |= fillable

        return self._fallback_fill(estimate, filled_mask)

    def _fallback_fill(
        self, estimate: np.ndarray, filled_mask: np.ndarray
    ) -> np.ndarray:
        """Nearest-neighbour fill for cells the neighbourhood missed."""
        if not filled_mask.all():
            fallback = self._fallback.complete(
                np.where(filled_mask, estimate, 0.0), filled_mask
            )
            estimate = np.where(filled_mask, estimate, fallback)
        return estimate


def _lagged_correlations(
    values: np.ndarray, mask: np.ndarray, lag: int, min_overlap: int
) -> np.ndarray:
    """|Pearson| of every row pair ``(i, i + lag)`` on co-observed cells.

    Returns an array of length ``m - lag`` (empty when the matrix is
    shorter than the lag).  Pairs with too little overlap or a constant
    side get the neutral weight 0.1.
    """
    m = values.shape[0]
    if m <= lag:
        return np.empty(0, dtype=np.float64)
    a, b = values[:-lag], values[lag:]
    both = mask[:-lag] & mask[lag:]
    cnt = both.sum(axis=1)
    cnt_safe = np.maximum(cnt, 1)
    va = np.where(both, a, 0.0)
    vb = np.where(both, b, 0.0)
    mean_a = va.sum(axis=1) / cnt_safe
    mean_b = vb.sum(axis=1) / cnt_safe
    dev_a = np.where(both, a - mean_a[:, None], 0.0)
    dev_b = np.where(both, b - mean_b[:, None], 0.0)
    cov = (dev_a * dev_b).sum(axis=1)
    var_a = (dev_a * dev_a).sum(axis=1)
    var_b = (dev_b * dev_b).sum(axis=1)
    ok = (cnt >= min_overlap) & (var_a > 0) & (var_b > 0)
    corr = np.full(m - lag, 0.1, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        raw = np.abs(cov[ok] / np.sqrt(var_a[ok] * var_b[ok]))
    raw[~np.isfinite(raw)] = 0.1
    corr[ok] = raw
    return corr
