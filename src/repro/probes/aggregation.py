"""Aggregation of probe reports into a measurement matrix.

Implements the paper's measurement model (Section 2.2): the traffic
condition of segment ``r`` in slot ``t`` is approximated by the *average
of the speeds of all probe vehicles on the segment within the slot*; a
cell with no report is missing (``B_{t,r} = 0``).

Stationary probes (taxis waiting for passengers, vehicles stopped at
signals for a whole reporting interval) would drag the average toward
zero even on free-flowing roads, so reports below a speed floor are
dropped before averaging — the standard cleaning step for taxi probe
data.

Surviving reports are flattened to ``slot * n + column`` keys and
accumulated with two ``np.bincount`` passes (weighted sums, counts).
``np.bincount`` adds weights in input order, exactly like a per-report
loop, so the sums are bit-identical to one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.tcm import TimeGrid, TrafficConditionMatrix
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.utils.contracts import hot_path
from repro.probes.report import ReportBatch


@dataclass(frozen=True)
class AggregationConfig:
    """Aggregation knobs.

    Attributes
    ----------
    min_speed_kmh:
        Reports slower than this are treated as idle and dropped
        (0 disables the filter).
    min_reports_per_cell:
        A cell needs at least this many surviving reports to count as
        observed; the paper uses 1 (any probe marks the cell).
    max_speed_kmh:
        Reports above this are GPS glitches and dropped.
    """

    min_speed_kmh: float = 2.0
    min_reports_per_cell: int = 1
    max_speed_kmh: float = 150.0

    def __post_init__(self) -> None:
        if self.min_speed_kmh < 0:
            raise ValueError("min_speed_kmh must be >= 0")
        if self.min_reports_per_cell < 1:
            raise ValueError("min_reports_per_cell must be >= 1")
        if self.max_speed_kmh <= self.min_speed_kmh:
            raise ValueError("max_speed_kmh must exceed min_speed_kmh")


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
    pos = np.searchsorted(sorted_ids, segs)
    pos = np.minimum(pos, sorted_ids.size - 1)
    known = sorted_ids[pos] == segs
    return sorter[pos], known


@hot_path
def _accumulate_bincount(
    slots: np.ndarray,
    cols: np.ndarray,
    speeds: np.ndarray,
    shape: Tuple[int, int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-cell speed sums and report counts via flattened-key bincount."""
    m, n = shape
    keys = slots * n + cols
    sums = np.bincount(keys, weights=speeds, minlength=m * n).reshape(m, n)
    counts = np.bincount(keys, minlength=m * n).reshape(m, n).astype(np.int64)
    return sums, counts


@obs_trace.traced("ingest.aggregate")
@hot_path
def aggregate_reports(
    batch: ReportBatch,
    grid: TimeGrid,
    segment_ids: Sequence[int],
    config: Optional[AggregationConfig] = None,
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
    config = config or AggregationConfig()
    m = grid.num_slots
    sorted_ids, sorter = _column_lookup(segment_ids)
    n = sorted_ids.size

    sums = np.zeros((m, n), dtype=np.float64)
    counts = np.zeros((m, n), dtype=np.int64)

    if len(batch):
        times = batch.times_s
        segs = batch.segment_ids
        speeds = batch.speeds_kmh
        in_window = (times >= grid.start_s) & (times < grid.end_s)
        valid_speed = (speeds >= config.min_speed_kmh) & (
            speeds <= config.max_speed_kmh
        )
        keep = in_window & valid_speed & (segs >= 0)
        times, segs, speeds = times[keep], segs[keep], speeds[keep]
        slots = ((times - grid.start_s) // grid.slot_s).astype(np.int64)
        cols, known = _columns_of(segs, sorted_ids, sorter)
        if known.any():
            sums, counts = _accumulate_bincount(
                slots[known], cols[known], speeds[known], (m, n)
            )

    mask = counts >= config.min_reports_per_cell
    values = np.zeros_like(sums)
    np.divide(sums, counts, out=values, where=counts > 0)
    values[~mask] = 0.0
    if obs_trace.enabled():
        obs_metrics.inc("ingest.reports", len(batch))
        obs_metrics.inc("ingest.cells_observed", int(mask.sum()))
    return TrafficConditionMatrix(
        values, mask, grid=grid, segment_ids=list(segment_ids)
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
