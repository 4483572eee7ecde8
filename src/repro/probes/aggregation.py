"""Aggregation of probe reports into a measurement matrix.

Implements the paper's measurement model (Section 2.2): the traffic
condition of segment ``r`` in slot ``t`` is approximated by the *average
of the speeds of all probe vehicles on the segment within the slot*; a
cell with no report is missing (``B_{t,r} = 0``).

Stationary probes (taxis waiting for passengers, vehicles stopped at
signals for a whole reporting interval) would drag the average toward
zero even on free-flowing roads, so reports below
:data:`MIN_SPEED_KMH` are dropped before averaging — the standard
cleaning step for taxi probe data — and speeds above
:data:`MAX_SPEED_KMH` are GPS glitches.  :func:`admit_reports` is the
one rule for which reports count, shared by batch aggregation and the
streaming estimator (:mod:`repro.scale.streaming`); it has no settings,
and one admitted report makes its cell observed (Eq. 4).
:data:`MAX_SPEED_KMH` also bounds every published estimate.

Surviving reports are flattened to ``slot * n + column`` keys and
accumulated with two ``np.bincount`` passes (weighted sums, counts).
``np.bincount`` adds weights in input order, exactly like a per-report
loop, so the sums are bit-identical to one.  The observed cells come
straight out of the counts (row-major flat keys, ascending) with their
means, and the TCM is built from those cells
(:meth:`~repro.core.tcm.TrafficConditionMatrix.from_cells`), which keeps
them for the sharded solver.  What still costs O(m n) is the bincount
output, the one scan that picks the cells, and zeroing the TCM's two
matrices.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.core.tcm import TimeGrid, TrafficConditionMatrix
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.utils.contracts import hot_path
from repro.probes.report import ReportBatch

#: Idle-report floor: slower reports are stationary probes, not flow.
MIN_SPEED_KMH = 2.0
#: Glitch cap on report speeds, and the upper clip of every estimate.
MAX_SPEED_KMH = 150.0


def _column_lookup(segment_ids: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """(sorted ids, argsort) pair for vectorized segment-id -> column maps."""
    seg_arr = np.asarray(list(segment_ids), dtype=np.int64)
    if seg_arr.ndim != 1:
        raise ValueError("segment_ids must be one-dimensional")
    sorter = np.argsort(seg_arr, kind="stable")
    sorted_ids = seg_arr[sorter]
    if sorted_ids.size and np.any(sorted_ids[1:] == sorted_ids[:-1]):
        raise ValueError("segment_ids must be unique")
    return sorted_ids, sorter


def _columns_of(
    segs: np.ndarray, sorted_ids: np.ndarray, sorter: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Column index per report and a mask of known segment ids."""
    if sorted_ids.size == 0:
        return np.zeros(segs.shape, dtype=np.int64), np.zeros(segs.shape, dtype=bool)
    pos = sorted_ids.searchsorted(segs)
    np.minimum(pos, sorted_ids.size - 1, out=pos)
    known = sorted_ids[pos] == segs
    return sorter[pos], known


def admit_reports(
    segs: np.ndarray,
    speeds: np.ndarray,
    sorted_ids: np.ndarray,
    sorter: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Column per report and the mask of reports that count.

    A report counts when it is matched (``segment_id >= 0``) to a known
    column and ``MIN_SPEED_KMH <= speed <= MAX_SPEED_KMH``; the two
    comparisons also reject NaN and ±inf.  ``(sorted_ids, sorter)``
    come from :func:`_column_lookup`.
    """
    cols, keep = _columns_of(segs, sorted_ids, sorter)
    keep &= (segs >= 0) & (speeds >= MIN_SPEED_KMH) & (speeds <= MAX_SPEED_KMH)
    return cols, keep


@hot_path
def _accumulate_bincount(
    slots: np.ndarray,
    cols: np.ndarray,
    speeds: np.ndarray,
    shape: Tuple[int, int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Observed cells and their mean speeds via flattened-key bincount.

    Returns the row-major flat keys of the cells with a report (Eq. 4),
    ascending, and each cell's mean speed.
    """
    m, n = shape
    keys = slots * n + cols
    sums = np.bincount(keys, weights=speeds, minlength=m * n)
    counts = np.bincount(keys, minlength=m * n)
    # Compare first: a bool scan beats nonzero over the int64 counts.
    cells = np.flatnonzero(counts > 0)
    return cells, sums[cells] / counts[cells]


@obs_trace.traced("ingest.aggregate")
@hot_path
def aggregate_reports(
    batch: ReportBatch,
    grid: TimeGrid,
    segment_ids: Sequence[int],
) -> TrafficConditionMatrix:
    """Build the measurement TCM ``(M, B)`` from probe reports.

    Parameters
    ----------
    batch:
        Reports with segment ids attached (simulator truth or map-matched
        output); unmatched reports (``segment_id == -1``) are skipped.
    grid:
        Target time discretization; reports outside it are skipped.
    segment_ids:
        TCM column labels (typically ``network.segment_ids``); reports on
        other segments are skipped.
    """
    m = grid.num_slots
    sorted_ids, sorter = _column_lookup(segment_ids)
    n = sorted_ids.size

    cells = np.zeros(0, dtype=np.intp)
    means = np.zeros(0, dtype=np.float64)

    if len(batch):
        times = batch.times_s
        speeds = batch.speeds_kmh
        cols, keep = admit_reports(batch.segment_ids, speeds, sorted_ids, sorter)
        keep &= (times >= grid.start_s) & (times < grid.end_s)
        if keep.any():
            slots = ((times[keep] - grid.start_s) // grid.slot_s).astype(np.int64)
            cells, means = _accumulate_bincount(slots, cols[keep], speeds[keep], (m, n))

    if obs_trace.enabled():
        obs_metrics.inc("ingest.reports", len(batch))
        obs_metrics.inc("ingest.cells_observed", cells.size)
    return TrafficConditionMatrix.from_cells(
        (m, n), cells, means, grid=grid, segment_ids=list(segment_ids)
    )


def reports_per_cell(
    batch: ReportBatch,
    grid: TimeGrid,
    segment_ids: Sequence[int],
) -> np.ndarray:
    """Count of usable reports per (slot, segment) cell (no speed filter)."""
    sorted_ids, sorter = _column_lookup(segment_ids)
    m, n = grid.num_slots, sorted_ids.size
    counts = np.zeros((m, n), dtype=np.int64)
    if not len(batch):
        return counts
    times = batch.times_s
    segs = batch.segment_ids
    keep = (segs >= 0) & (times >= grid.start_s) & (times < grid.end_s)
    segs, times = segs[keep], times[keep]
    cols, known = _columns_of(segs, sorted_ids, sorter)
    if not known.any():
        return counts
    slots = ((times[known] - grid.start_s) // grid.slot_s).astype(np.int64)
    keys = slots * n + cols[known]
    return np.bincount(keys, minlength=m * n).reshape(m, n).astype(np.int64)
