"""Online / streaming estimation (the paper's first future-work item).

The paper's Algorithm 1 is offline: it completes one fixed TCM.  The
conclusion proposes extending it "to support processing of online
streaming probe data".  The extension is a sliding window:

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

This module holds the window state, :class:`WindowCompleter` — one
sliding window of measurements, its warm-start factor, and the (warm or
cold) re-completion step.  Both paths are one centred
:meth:`~repro.core.completion.CompressiveSensingCompleter._fit`; a warm
one passes the carried factor as ``init``, in place of the random draw
of pseudocode line 1.  The one streaming estimator,
:class:`repro.scale.streaming.ShardedStreamingEstimator`, keeps one
window per spatial tile (``partitioner="single"`` is the whole-network
stream).  The window buffers are preallocated 2-D arrays and the
per-column observation counts are maintained *incrementally* (add the
new slot's mask, subtract the slot that slid out).

Every re-completion, warm or cold, stops once a sweep improves the
Eq. 16 objective by less than :data:`STREAM_TOL` (relative, the
completer's ``tol`` rule); ``warm_iterations`` and ``cold_iterations``
only cap the sweeps.  Reading the objective costs O((m + n) r) per sweep
(see :meth:`repro.core.completion._WorkspaceKernel.objective`), so
checking convergence is nearly free.  A warm factor narrower than
``min(rank, filled slots, columns)`` — e.g. the rank-1 factor of a cold
solve on a one-row window — is discarded for a cold solve, so every
window reaches the full rank once it has enough rows.  The completed
row is clipped to ``[0, MAX_SPEED_KMH]``, the cap batch estimates use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.completion import (
    CompressiveSensingCompleter,
    DTypeLike,
    PAPER_LAMBDA,
    PAPER_RANK,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.probes.aggregation import MAX_SPEED_KMH
from repro.utils.rng import SeedLike, ensure_rng

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
    and the warm-start left factor carried between solves.
    :class:`repro.scale.streaming.ShardedStreamingEstimator` keeps one
    instance per shard.

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
        :class:`CompressiveSensingCompleter`.  The window is cast to it
        before it is centred, as a batch completion is, and warm-start
        factors are kept in it across windows, so a float32 stream
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
        for tiles whose columns received no new reports.  A row whose
        observed values are not all finite raises ``ValueError`` and
        leaves the window as it was.
        """
        values = np.asarray(values, dtype=np.float64)
        mask = np.asarray(mask, dtype=bool)
        if values.shape != (self.num_columns,) or mask.shape != values.shape:
            raise ValueError(
                f"slot row must have shape ({self.num_columns},), got "
                f"{values.shape} / {mask.shape}"
            )
        if not np.isfinite(values[mask]).all():
            raise ValueError("observed values of a slot row must be finite")
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
        # A factor from a window too short for the full rank (a cold
        # solve on one row is rank 1) would pin every warm solve after
        # it to that rank: re-solve cold once the window allows more.
        rank = min(self.rank, self._filled, self.num_columns)
        cold = (
            not self.warm_start
            or self._warm_left is None
            or self._warm_left.shape[0] != self._filled
            or self._warm_left.shape[1] < rank
        )
        # Centred, so the warm-started factors always refer to the same
        # residual space.  One seed is drawn per re-completion, warm or
        # cold, so the window's draw order does not depend on the path.
        completer = CompressiveSensingCompleter(
            rank=self.rank,
            lam=self.lam,
            iterations=self.cold_iterations if cold else self.warm_iterations,
            dtype=self.dtype,
            tol=STREAM_TOL,
            center=True,
            seed=int(self._rng.integers(0, 2**63 - 1)),
        )
        fit = completer._fit(
            self._values[: self._filled],
            self._masks[: self._filled],
            init=None if cold else self._warm_left,
        )
        if obs_trace.enabled():
            obs_metrics.inc("stream.recompletions")
            obs_metrics.inc(
                "stream.cold_starts" if cold else "stream.warm_starts"
            )
            obs_metrics.observe("stream.sweeps", len(fit.history))
        self._warm_left = fit.left
        # Only the newest row is published: form it alone, not L R^T.
        return np.clip(
            fit.left[-1] @ fit.right.T + fit.offset, 0.0, MAX_SPEED_KMH
        )
