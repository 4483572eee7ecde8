"""Online / streaming estimation (the paper's first future-work item).

The paper's Algorithm 1 is offline: it completes one fixed TCM.  The
conclusion proposes extending it "to support processing of online
streaming probe data".  :class:`StreamingEstimator` does so with a
sliding window:

* probe reports are ingested incrementally and bucketed into slots;
* when a slot closes, the estimator re-runs completion over the most
  recent ``window_slots`` slots, *warm-starting* the left factor from
  the previous solve (rows shift by one slot; the overlapping rows keep
  their factor values, the new row starts at the previous last row) so
  only a few ALS sweeps are needed per update;
* the freshly completed last row is the live estimate for the slot that
  just closed.

The warm start is what makes streaming cheap: consecutive windows share
all but one row, and ALS from a near-solution converges in a handful of
sweeps instead of the cold-start 100.

The window state itself lives in :class:`WindowCompleter` — one sliding
window of measurements, its warm-start factor, and the (warm or cold)
re-completion step — so the sharded metropolitan estimator
(:mod:`repro.scale.streaming`) can keep one instance per spatial tile
and re-complete only the tiles whose columns actually received reports.
The window buffers are preallocated 2-D arrays and the per-column
observation counts are maintained *incrementally* (add the new slot's
mask, subtract the slot that slid out) instead of being re-derived from
a freshly stacked indicator matrix at every slot close.

Every re-completion, warm or cold, stops once a sweep improves the
Eq. 16 objective by less than :data:`STREAM_TOL` (relative, the
completer's ``tol`` rule); ``warm_iterations`` and ``cold_iterations``
only cap the sweeps.  Reading the objective costs O((m + n) r) per sweep
(see :meth:`repro.core.completion._WorkspaceKernel.objective`), so
checking convergence is nearly free.  A warm factor narrower than
``min(rank, filled slots, columns)`` — e.g. the rank-1 factor of a cold
solve on a one-row window — is discarded for a cold solve, so every
window reaches the full rank once it has enough rows.  Speeds that are
not finite are dropped at ingest and counted as
``stream.rejected_nonfinite``; reports for an already-closed slot are
dropped and counted as ``stream.rejected_late`` (a late report counts
only as late, whatever its speed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.completion import (
    CompletionResult,
    CompressiveSensingCompleter,
    DTypeLike,
    PAPER_LAMBDA,
    PAPER_RANK,
)
from repro.core.tcm import TimeGrid, TrafficConditionMatrix
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.probes.report import ProbeReport
from repro.utils.contracts import shapes
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive

#: Relative per-sweep objective improvement below which a stream
#: re-completion stops (warm or cold; the sweep budgets only cap it).
#: On the metro benchmark stream, warm re-completions then average 2.6
#: sweeps instead of 8, and NMAE moves by about 1e-4 relative.
STREAM_TOL = 1e-5


@dataclass(frozen=True)
class SlotEstimate:
    """The live estimate published when a slot closes.

    Attributes
    ----------
    slot_start_s:
        Wall-clock start of the closed slot.
    speeds_kmh:
        Estimated mean flow speed for every tracked segment.
    observed_fraction:
        Integrity of the closed slot's measurements (before completion).
    """

    slot_start_s: float
    speeds_kmh: np.ndarray
    observed_fraction: float


class WindowCompleter:
    """One sliding measurement window with warm-started re-completion.

    Holds the mutable state a streaming estimator needs per column set:
    the last ``window_slots`` measurement rows (preallocated buffers, no
    per-close stacking), the incremental per-column observation counts,
    and the warm-start left factor carried between solves.  Both the
    whole-network :class:`StreamingEstimator` and the per-shard state of
    :class:`repro.scale.streaming.ShardedStreamingEstimator` are thin
    drivers around instances of this class.

    Parameters
    ----------
    num_columns:
        Width of the window (tracked segments of this tile).
    window_slots:
        Rows of the sliding TCM window.
    rank, lam:
        Algorithm 1 parameters.
    warm_iterations, cold_iterations:
        Caps on the ALS sweeps of warm-started updates vs cold solves;
        each stops earlier once it converges to :data:`STREAM_TOL`.
    dtype:
        Working dtype, forwarded to
        :class:`CompressiveSensingCompleter`.  Warm-start factors are
        kept in the working dtype across windows, so a float32 stream
        never silently re-promotes to float64.
    rng:
        Seed source for the per-recompletion completer seeds.  Each
        tile owns an independent generator, so per-shard draw order is
        unaffected by which *other* shards re-complete.
    """

    def __init__(
        self,
        num_columns: int,
        window_slots: int,
        rank: int = PAPER_RANK,
        lam: float = PAPER_LAMBDA,
        warm_iterations: int = 8,
        cold_iterations: int = 60,
        dtype: DTypeLike = None,
        rng: SeedLike = None,
    ) -> None:
        if num_columns < 1:
            raise ValueError(f"num_columns must be >= 1, got {num_columns}")
        if window_slots < 2:
            raise ValueError(f"window_slots must be >= 2, got {window_slots}")
        if warm_iterations < 1 or cold_iterations < 1:
            raise ValueError("iteration counts must be >= 1")
        self.num_columns = num_columns
        self.window_slots = window_slots
        self.rank = rank
        self.lam = lam
        self.warm_iterations = warm_iterations
        self.cold_iterations = cold_iterations
        self.dtype = dtype
        # Validate the configuration eagerly (same checks the completer
        # applies) so a bad setting fails at construction, not at the
        # first slot close.
        CompressiveSensingCompleter(rank=rank, lam=lam, iterations=1, dtype=dtype)
        self._rng = ensure_rng(rng)
        #: Set False to force every re-completion onto the cold path
        #: (used by the streaming study's warm-vs-cold comparison).
        self.warm_start = True
        self._values = np.zeros((window_slots, num_columns))
        self._masks = np.zeros((window_slots, num_columns), dtype=bool)
        self._filled = 0
        # Incremental per-column observation counts over the window:
        # updated as rows enter/leave, never re-derived from the full
        # indicator matrix.
        self._obs_counts = np.zeros(num_columns, dtype=np.int64)
        self._warm_left: Optional[np.ndarray] = None
        self._last_estimate = np.zeros(num_columns)

    # ------------------------------------------------------------------
    @property
    def filled(self) -> int:
        """Number of slots currently in the window."""
        return self._filled

    def observation_counts(self) -> np.ndarray:
        """Per-column observed-slot counts over the current window."""
        return self._obs_counts.copy()

    def window_arrays(self) -> tuple:
        """Copies of the window's (values, mask) matrices."""
        return (
            self._values[: self._filled].copy(),
            self._masks[: self._filled].copy(),
        )

    def last_estimate(self) -> np.ndarray:
        """The most recently completed last-row estimate (km/h)."""
        return self._last_estimate.copy()

    # ------------------------------------------------------------------
    def push(
        self,
        values: np.ndarray,
        mask: np.ndarray,
        recomplete: bool = True,
    ) -> np.ndarray:
        """Append one closed slot, optionally re-complete the window.

        Returns the completed estimate row for the new slot.  With
        ``recomplete=False`` the slot still enters the window (and the
        warm factor row-shifts with it), but no solve runs — the
        previous estimate row is republished.  This is the cheap path
        for tiles whose columns received no new reports.
        """
        values = np.asarray(values, dtype=np.float64)
        mask = np.asarray(mask, dtype=bool)
        if values.shape != (self.num_columns,) or mask.shape != values.shape:
            raise ValueError(
                f"slot row must have shape ({self.num_columns},), got "
                f"{values.shape} / {mask.shape}"
            )
        if self._filled == self.window_slots:
            self._obs_counts -= self._masks[0]
            self._values[:-1] = self._values[1:]
            self._masks[:-1] = self._masks[1:]
            self._values[-1] = values
            self._masks[-1] = mask
            if self._warm_left is not None:
                # Shift factor rows with the window; seed the new row
                # from the previous newest row (traffic is continuous).
                self._warm_left = np.vstack(
                    [self._warm_left[1:], self._warm_left[-1:]]
                )
        else:
            self._values[self._filled] = values
            self._masks[self._filled] = mask
            self._filled += 1
            if self._warm_left is not None:
                self._warm_left = np.vstack(
                    [self._warm_left, self._warm_left[-1:]]
                )
        self._obs_counts += mask
        if recomplete:
            self._last_estimate = self._recomplete()
        return self._last_estimate.copy()

    def _recomplete(self) -> np.ndarray:
        """Run (warm-started) completion over the window; return last row."""
        if not self._obs_counts.any():
            return np.zeros(self.num_columns)
        window_m = self._values[: self._filled]
        window_b = self._masks[: self._filled]

        # Centering is handled here (not via the completer option) so the
        # warm-started factors always refer to the same residual space.
        offset = float(window_m[window_b].mean())
        window_m = np.where(window_b, window_m - offset, 0.0)

        # A factor from a window too short for the full rank (a cold
        # solve on one row is rank 1) would pin every warm solve after
        # it to that rank: re-solve cold once the window allows more.
        rank = min(self.rank, self._filled, self.num_columns)
        cold = (
            not self.warm_start
            or self._warm_left is None
            or self._warm_left.shape[0] != window_m.shape[0]
            or self._warm_left.shape[1] < rank
        )
        iterations = self.cold_iterations if cold else self.warm_iterations
        completer = CompressiveSensingCompleter(
            rank=self.rank,
            lam=self.lam,
            iterations=iterations,
            dtype=self.dtype,
            tol=STREAM_TOL,
            seed=int(self._rng.integers(0, 2**63 - 1)),
        )
        if cold:
            result = completer.complete(window_m, window_b)
            left, right, sweeps = result.left, result.right, result.iterations_run
        else:
            _, left, right, history = _warm_run(
                completer, window_m, window_b, self._warm_left
            )
            sweeps = len(history)
        if obs_trace.enabled():
            obs_metrics.inc("stream.recompletions")
            obs_metrics.inc(
                "stream.cold_starts" if cold else "stream.warm_starts"
            )
            obs_metrics.observe("stream.sweeps", sweeps)
        self._warm_left = left
        # Only the newest row is published: form it alone, not L R^T.
        return np.maximum(left[-1] @ right.T + offset, 0.0)


class StreamingEstimator:
    """Sliding-window online completion of streaming probe data.

    Parameters
    ----------
    segment_ids:
        The tracked road segments (column order of all outputs).
    slot_s:
        Slot length in seconds.
    window_slots:
        Rows of the sliding TCM window; larger windows expose more
        temporal structure to the completion at higher per-update cost.
    start_s:
        Stream clock origin (start of slot 0).
    rank, lam:
        Algorithm 1 parameters.
    warm_iterations, cold_iterations:
        ALS sweeps for warm-started updates vs the first (cold) solve.
    min_speed_kmh:
        Idle-report filter threshold, as in batch aggregation.
    dtype:
        Working dtype, forwarded to :class:`CompressiveSensingCompleter`.
    """

    def __init__(
        self,
        segment_ids: Sequence[int],
        slot_s: float,
        window_slots: int = 96,
        start_s: float = 0.0,
        rank: int = PAPER_RANK,
        lam: float = PAPER_LAMBDA,
        warm_iterations: int = 8,
        cold_iterations: int = 60,
        min_speed_kmh: float = 2.0,
        dtype: DTypeLike = None,
        seed: SeedLike = None,
    ) -> None:
        check_positive(slot_s, "slot_s")
        self.segment_ids = [int(s) for s in segment_ids]
        if len(set(self.segment_ids)) != len(self.segment_ids):
            raise ValueError("segment_ids must be unique")
        self._col_of = {sid: j for j, sid in enumerate(self.segment_ids)}
        self.slot_s = slot_s
        self.window_slots = window_slots
        self.start_s = start_s
        self.rank = rank
        self.lam = lam
        self.warm_iterations = warm_iterations
        self.cold_iterations = cold_iterations
        self.min_speed_kmh = min_speed_kmh
        self.dtype = dtype
        self._window = WindowCompleter(
            num_columns=len(self.segment_ids),
            window_slots=window_slots,
            rank=rank,
            lam=lam,
            warm_iterations=warm_iterations,
            cold_iterations=cold_iterations,
            dtype=dtype,
            rng=ensure_rng(seed),
        )

    # mutable stream state ------------------------------------------------
        n = len(self.segment_ids)
        self._current_slot = 0
        self._sums = np.zeros(n)
        self._counts = np.zeros(n, dtype=np.int64)
        self.estimates: List[SlotEstimate] = []

    # ------------------------------------------------------------------
    def ingest(self, report: ProbeReport) -> List[SlotEstimate]:
        """Feed one report; returns estimates for any slots that closed.

        Reports must arrive in (approximately) non-decreasing time order;
        a report for an already-closed slot is dropped (late data) and
        counted as ``stream.rejected_late``.
        """
        slot = int((report.time_s - self.start_s) // self.slot_s)
        if slot < self._current_slot:
            obs_metrics.inc("stream.rejected_late")
            return []
        closed: List[SlotEstimate] = []
        while slot > self._current_slot:
            closed.append(self._close_slot())
        self._accumulate(report)
        return closed

    def ingest_many(self, reports: Sequence[ProbeReport]) -> List[SlotEstimate]:
        """Feed a chronologically sorted batch of reports."""
        closed: List[SlotEstimate] = []
        for report in sorted(reports, key=lambda r: r.time_s):
            closed.extend(self.ingest(report))
        return closed

    def flush(self) -> SlotEstimate:
        """Force-close the in-progress slot (e.g. at stream end)."""
        return self._close_slot()

    # ------------------------------------------------------------------
    def _accumulate(self, report: ProbeReport) -> None:
        if not math.isfinite(report.speed_kmh):
            obs_metrics.inc("stream.rejected_nonfinite")
            return
        if report.segment_id < 0 or report.speed_kmh < self.min_speed_kmh:
            return
        j = self._col_of.get(int(report.segment_id))
        if j is None:
            return
        self._sums[j] += report.speed_kmh
        self._counts[j] += 1

    @obs_trace.traced("stream.close_slot")
    def _close_slot(self) -> SlotEstimate:
        """Finalize the current slot, slide the window, re-complete."""
        n = len(self.segment_ids)
        mask = self._counts > 0
        values = np.zeros(n)
        np.divide(self._sums, self._counts, out=values, where=mask)

        estimate = self._window.push(values, mask, recomplete=True)
        # Where we actually observed the slot, publish the measurement.
        estimate_row = np.where(mask, values, estimate)
        slot_start = self.start_s + self._current_slot * self.slot_s
        result = SlotEstimate(
            slot_start_s=slot_start,
            speeds_kmh=estimate_row,
            observed_fraction=float(mask.mean()),
        )
        self.estimates.append(result)

        self._current_slot += 1
        self._sums[:] = 0.0
        self._counts[:] = 0
        return result

    def window_tcm(self) -> TrafficConditionMatrix:
        """The current window's measurement TCM (for inspection)."""
        if not self._window.filled:
            raise ValueError("no closed slots yet")
        values, masks = self._window.window_arrays()
        first_slot = self._current_slot - values.shape[0]
        grid = TimeGrid(
            start_s=self.start_s + first_slot * self.slot_s,
            slot_s=self.slot_s,
            num_slots=values.shape[0],
        )
        return TrafficConditionMatrix(
            values, masks, grid=grid, segment_ids=self.segment_ids
        )


@shapes(None, "m n", "m n:bool", "m r")
def _warm_run(
    completer: CompressiveSensingCompleter,
    m_arr: np.ndarray,
    b_arr: np.ndarray,
    warm_left: np.ndarray,
) -> Tuple[float, np.ndarray, np.ndarray, List[float]]:
    """Run the completer's ALS sweeps starting from a provided left factor.

    :meth:`CompressiveSensingCompleter.complete` with the random
    initialization (pseudocode line 1) replaced by ``warm_left``; returns
    ``(best objective, L, R, per-sweep objectives)``.  ``m_arr`` must
    already be zero on unobserved cells.  The sweep runs in the
    completer's working dtype: measurements and the warm factor are cast
    on entry, and the returned factors stay in that dtype so the next
    window warm-starts without re-promotion.
    """
    work_dtype = completer.work_dtype(m_arr.dtype)
    m_arr = np.ascontiguousarray(m_arr, dtype=work_dtype)
    return completer._run_als(
        m_arr, b_arr.astype(work_dtype), warm_left.astype(work_dtype, copy=False)
    )


@shapes(None, "m n", "m n:bool", "m r")
def _warm_complete(
    completer: CompressiveSensingCompleter,
    m_arr: np.ndarray,
    b_arr: np.ndarray,
    warm_left: np.ndarray,
) -> CompletionResult:
    """:func:`_warm_run` packaged as a :class:`CompletionResult`."""
    objective, left, right, history = _warm_run(completer, m_arr, b_arr, warm_left)
    return CompletionResult(
        estimate=completer._estimate(left, right),
        left=left,
        right=right,
        objective=objective,
        objective_history=history,
        iterations_run=len(history),
    )
