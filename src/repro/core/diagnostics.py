"""Completion diagnostics.

Operating a traffic-estimation deployment needs more than one NMAE
number: did the ALS converge, which segments drive the error, and how
does accuracy relate to how well each segment was observed?  These
tools answer those questions for a completed matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.completion import CompletionResult
from repro.core.tcm import TrafficConditionMatrix
from repro.metrics.errors import nmae
from repro.utils.validation import check_matrix_pair


@dataclass(frozen=True)
class ConvergenceDiagnostics:
    """ALS convergence summary.

    Attributes
    ----------
    converged:
        Whether the final objective is within ``tol`` (relative) of the
        best objective seen during the run.
    final_objective, best_objective:
        Objective values (Eq. 16).
    relative_drop:
        Overall objective reduction ``1 - best/first`` (0 when the
        first iterate was already optimal).
    iterations_run:
        ALS sweeps run.
    """

    converged: bool
    final_objective: float
    best_objective: float
    relative_drop: float
    iterations_run: int


def convergence_diagnostics(
    result: CompletionResult, tol: float = 1e-3
) -> ConvergenceDiagnostics:
    """Summarize a completion run's objective trajectory."""
    history = list(result.objective_history)
    if not history:
        raise ValueError("completion result has an empty objective history")
    first, final = history[0], history[-1]
    best = result.objective
    drop = 0.0 if first <= 0 else max(0.0, 1.0 - best / first)
    converged = final <= best * (1.0 + tol)
    return ConvergenceDiagnostics(
        converged=converged,
        final_objective=final,
        best_objective=best,
        relative_drop=drop,
        iterations_run=result.iterations_run,
    )


@dataclass(frozen=True)
class FitDiagnostics:
    """How the estimate relates to the observations it was fit on.

    Attributes
    ----------
    observed_nmae:
        NMAE between the estimate and the *observed* cells.  High values
        mean under-fitting (lambda too large / rank too small).
    residual_std_kmh:
        Standard deviation of observed-cell residuals.
    worst_segments:
        Segment ids with the largest observed-cell NMAE, worst first.
    per_segment_nmae:
        Observed-cell NMAE per segment id (NaN when unobserved).
    """

    observed_nmae: float
    residual_std_kmh: float
    worst_segments: List[int]
    per_segment_nmae: Dict[int, float]


def fit_diagnostics(
    measurements: TrafficConditionMatrix,
    estimate: np.ndarray,
    top_k: int = 10,
) -> FitDiagnostics:
    """Residual analysis of an estimate against its measurements."""
    estimate = np.asarray(estimate, dtype=float)
    if estimate.shape != measurements.shape:
        raise ValueError(
            f"estimate shape {estimate.shape} != measurements {measurements.shape}"
        )
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    values, mask = measurements.values, measurements.mask
    overall = nmae(values, estimate, mask)
    residuals = (estimate - values)[mask]
    residual_std = float(residuals.std()) if residuals.size else float("nan")

    per_segment: Dict[int, float] = {}
    for j, sid in enumerate(measurements.segment_ids):
        col_mask = mask[:, j]
        if col_mask.any():
            per_segment[sid] = nmae(
                values[:, j][col_mask][None], estimate[:, j][col_mask][None]
            )
        else:
            per_segment[sid] = float("nan")

    scored = [
        (sid, err) for sid, err in per_segment.items() if np.isfinite(err)
    ]
    scored.sort(key=lambda kv: -kv[1])
    worst = [sid for sid, _ in scored[:top_k]]
    return FitDiagnostics(
        observed_nmae=overall,
        residual_std_kmh=residual_std,
        worst_segments=worst,
        per_segment_nmae=per_segment,
    )


def coverage_error_profile(
    truth: np.ndarray,
    estimate: np.ndarray,
    mask: np.ndarray,
    bins: Tuple[float, ...] = (0.0, 0.1, 0.25, 0.5, 1.0),
) -> List[Tuple[float, float, float, int]]:
    """Estimate error as a function of per-segment coverage.

    Groups segments by their observation fraction and reports the NMAE
    over *missing* cells within each coverage bin.

    Returns a list of ``(bin_low, bin_high, nmae, num_segments)`` rows;
    bins with no segments carry NaN.  The expected shape: error falls as
    coverage rises, with the zero-coverage bin worst (those segments are
    estimated purely from cross-segment structure).
    """
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    _, mask = check_matrix_pair(truth, mask)
    if estimate.shape != truth.shape:
        raise ValueError("estimate shape mismatch")
    if len(bins) < 2 or list(bins) != sorted(bins):
        raise ValueError("bins must be ascending with at least two edges")

    coverage = mask.mean(axis=0)
    rows: List[Tuple[float, float, float, int]] = []
    for lo, hi in zip(bins[:-1], bins[1:]):
        in_bin = (coverage >= lo) & (
            (coverage < hi) if hi < bins[-1] else (coverage <= hi)
        )
        cols = np.flatnonzero(in_bin)
        if cols.size == 0:
            rows.append((lo, hi, float("nan"), 0))
            continue
        eval_mask = np.zeros_like(mask)
        eval_mask[:, cols] = ~mask[:, cols]
        rows.append((lo, hi, nmae(truth, estimate, eval_mask), int(cols.size)))
    return rows
