"""Reference implementations Algorithm 1 is tested against.

``ridge_by_column`` is the textbook per-column masked ridge solve and
``als_reference`` a plain ALS loop around it that draws its random
init exactly as :class:`repro.core.completion.CompressiveSensingCompleter`
does.  Both favour obviousness over speed: they exist only as oracles.
"""

import numpy as np


def ridge_by_column(factor, m_arr, b_arr, lam):
    """Mask-aware ridge solve for the other factor, column by column.

    For each column ``j`` of ``M``, with ``I`` the observed rows:

        (F_I^T F_I + lam I_r) x_j = F_I^T M_{I,j}

    An entirely unobserved column yields the zero vector.
    """
    r = factor.shape[1]
    out = np.zeros((m_arr.shape[1], r), dtype=factor.dtype)
    eye = lam * np.eye(r, dtype=factor.dtype)
    for j in range(m_arr.shape[1]):
        rows = b_arr[:, j]
        if not rows.any():
            continue
        f = factor[rows]
        out[j] = np.linalg.solve(f.T @ f + eye, f.T @ m_arr[rows, j])
    return out


def als_reference(
    values, mask, rank, lam, iterations, seed, mask_aware=True, center=False
):
    """Float64 Algorithm 1 with one restart; returns (estimate, objective).

    ``mask_aware=False`` is the literal pseudocode: the ridge systems
    are solved as if every cell were observed (missing cells are zero).
    """
    rng = np.random.default_rng(seed)
    m, n = values.shape
    r = min(rank, m, n)
    offset = float(values[mask].mean()) if center else 0.0
    m_arr = np.where(mask, values - offset, 0.0)
    scale = float(np.abs(m_arr[mask]).mean())
    left = rng.standard_normal((m, r)) * np.sqrt(max(scale, 1e-6) / r)
    solve_mask = mask if mask_aware else np.ones_like(mask)
    best = (np.inf, None)
    for _ in range(iterations):
        right = ridge_by_column(left, m_arr, solve_mask, lam)
        left = ridge_by_column(right, m_arr.T, solve_mask.T, lam)
        fit = np.sum(((left @ right.T - m_arr) * mask) ** 2)
        obj = float(fit + lam * (np.sum(left**2) + np.sum(right**2)))
        if obj < best[0]:
            best = (obj, left @ right.T + offset)
    return best[1], best[0]
