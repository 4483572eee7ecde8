"""Online estimation over spatial shards: the one streaming estimator.

:class:`ShardedStreamingEstimator` runs the paper's online extension
(see :mod:`repro.core.streaming`) at any scale.  Each spatial shard
owns its own :class:`repro.core.streaming.WindowCompleter` — sliding
window, warm factors, and an *independent* RNG stream (``spawn_rngs``),
so whether one tile re-completes never perturbs another tile's draws.
``partitioner="single"`` is the whole-network (monolithic) stream.  On a
slot close only the *dirty* shards — those whose columns actually
received reports during the slot — pay for a re-completion; clean shards
just slide their window and republish their previous row (the
``scale.recompletions_skipped`` metric counts how much work this
avoids, which at metropolitan scale with a localized fleet is most of
it).  Shard rows are merged by the batch stitcher,
:func:`repro.scale.sharded._stitch`.

Ingestion is columnar: :meth:`ShardedStreamingEstimator.ingest_batch`
takes a :class:`repro.probes.report.ReportBatch` and buckets the whole
batch with vectorized searchsorted/bincount passes; :meth:`ingest` (one
report) and :meth:`ingest_many` (loose reports) feed the same path.
Which reports count is the batch rule,
:func:`repro.probes.aggregation.admit_reports`: a matched, known segment
and a speed in ``[MIN_SPEED_KMH, MAX_SPEED_KMH]``.  Reports for an
already-closed slot are dropped and counted once, as
``stream.rejected_late``, whatever their speed; of the rest, a NaN/±inf
time or speed counts as ``stream.rejected_nonfinite`` (a time with no
slot would otherwise land in whatever slot is open, and one ``inf``
speed would poison its shard's window for ``window_slots`` slots) and
finite speeds above the cap as ``stream.rejected_overspeed``.  Idle,
unmatched and unknown-segment reports are dropped uncounted, as in
batch aggregation.

Each shard's re-completion stops at convergence, capped by the sweep
budgets, runs at the full rank once its window is long enough, and its
published row is clipped to ``[0, MAX_SPEED_KMH]`` (see
:mod:`repro.core.streaming`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.completion import PAPER_LAMBDA, PAPER_RANK, DTypeLike
from repro.core.streaming import SlotEstimate, WindowCompleter
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.probes.aggregation import (
    MAX_SPEED_KMH,
    MIN_SPEED_KMH,
    _column_lookup,
    admit_reports,
)
from repro.probes.report import ProbeReport, ReportBatch
from repro.roadnet.network import RoadNetwork
from repro.scale.partition import Shard, make_partitioner
from repro.scale.sharded import _ShardIndex, _stitch
from repro.utils.contracts import shapes
from repro.utils.rng import SeedLike, spawn_rngs
from repro.utils.validation import check_finite_time, check_positive

__all__ = ["ShardedStreamingEstimator"]


class ShardedStreamingEstimator:
    """Sliding-window online completion over spatial shards.

    Parameters
    ----------
    network:
        The road network; its sorted segment ids are the column order of
        every published estimate row.
    shards, halo, partitioner:
        Spatial decomposition, as in
        :class:`repro.scale.sharded.ShardedEstimator`;
        ``partitioner="single"`` runs one window over the whole network.
    slot_s, window_slots, start_s:
        Slot length (seconds), rows of each sliding window, and the
        stream clock origin (start of slot 0); both times must be
        finite.
    rank, lam, warm_iterations, cold_iterations:
        Per-shard completion settings and sweep caps, as in
        :class:`WindowCompleter`.
    dtype:
        Working dtype for every shard's completer.
    seed:
        Root seed; per-shard RNG streams are spawned from it, so each
        shard's draw sequence is independent of every other shard's
        re-completion schedule.
    """

    def __init__(
        self,
        network: RoadNetwork,
        shards: int = 4,
        halo: int = 0,
        partitioner: Union[str, object] = "grid",
        slot_s: float = 600.0,
        window_slots: int = 96,
        start_s: float = 0.0,
        rank: int = PAPER_RANK,
        lam: float = PAPER_LAMBDA,
        warm_iterations: int = 8,
        cold_iterations: int = 60,
        dtype: DTypeLike = None,
        seed: SeedLike = None,
    ) -> None:
        # A NaN or infinite clock has no usable slots: every report
        # would be dropped as late or land in slot 0.
        check_finite_time(start_s, "start_s")
        check_finite_time(slot_s, "slot_s")
        check_positive(slot_s, "slot_s")
        self.network = network
        self.segment_ids = [int(s) for s in network.segment_ids]
        if isinstance(partitioner, str):
            partitioner = make_partitioner(partitioner, shards, halo=halo)
        self.partitioner = partitioner
        with obs_trace.span("scale.partition", shards=shards, halo=halo):
            partition = partitioner.partition(network)
        # The shards in shard_id order and their columns.
        index = _ShardIndex.build(partition, self.segment_ids)
        self.shards: List[Shard] = index.ordered
        self._shard_cols = index.cols
        self.slot_s = slot_s
        self.window_slots = window_slots
        self.start_s = start_s

        n = len(self.segment_ids)
        self._has_halo = any(shard.halo_ids for shard in self.shards)
        self._sorted_ids, self._sorter = _column_lookup(self.segment_ids)
        rngs = spawn_rngs(seed, len(self.shards))
        self._windows = [
            WindowCompleter(
                num_columns=cols.size,
                window_slots=window_slots,
                rank=rank,
                lam=lam,
                warm_iterations=warm_iterations,
                cold_iterations=cold_iterations,
                dtype=dtype,
                rng=rng,
            )
            for cols, rng in zip(self._shard_cols, rngs)
        ]

        # mutable stream state ------------------------------------------
        self._current_slot = 0
        self._sums = np.zeros(n)
        self._counts = np.zeros(n, dtype=np.int64)
        self.estimates: List[SlotEstimate] = []
        self.recompletions = 0
        self.recompletions_skipped = 0

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def min_speed_kmh(self) -> float:
        """Idle-report floor of the admission rule, :data:`MIN_SPEED_KMH`.

        Read-only: the rule has no settings.  ``benchmarks/e2e`` reads it
        to mask the observed cells it scores.
        """
        return MIN_SPEED_KMH

    # ------------------------------------------------------------------
    @shapes(ProbeReport)
    def ingest(self, report: ProbeReport) -> List[SlotEstimate]:
        """Feed one report; returns estimates for any slots that closed."""
        return self._ingest(
            np.array([report.time_s], dtype=np.float64),
            np.array([report.segment_id], dtype=np.int64),
            np.array([report.speed_kmh], dtype=np.float64),
        )

    @obs_trace.traced("scale.ingest_batch")
    @shapes(ReportBatch)
    def ingest_batch(self, batch: ReportBatch) -> List[SlotEstimate]:
        """Feed a columnar report batch (the million-report path).

        One admission test, one slot assignment, then a bincount
        accumulation per distinct slot; slots close in order as the
        stream advances past them.
        """
        return self._ingest(batch.times_s, batch.segment_ids, batch.speeds_kmh)

    def ingest_many(self, reports: Sequence[ProbeReport]) -> List[SlotEstimate]:
        """Feed loose reports (columnarized first)."""
        return self.ingest_batch(ReportBatch(reports))

    def flush(self) -> SlotEstimate:
        """Force-close the in-progress slot (e.g. at stream end)."""
        return self._close_slot()

    # ------------------------------------------------------------------
    def _ingest(
        self, times: np.ndarray, segs: np.ndarray, speeds: np.ndarray
    ) -> List[SlotEstimate]:
        """Bucket time-ordered report columns; close slots as time passes."""
        timed = np.isfinite(times)
        if not timed.all():
            # A NaN or infinite time has no slot: drop the report, counted
            # once whatever its speed, before it can reach any slot.
            if obs_trace.enabled():
                obs_metrics.inc(
                    "stream.rejected_nonfinite", times.size - int(timed.sum())
                )
            times, segs, speeds = times[timed], segs[timed], speeds[timed]
        if not times.size:
            return []
        # Time order makes slots non-decreasing, late reports a prefix.
        slots = ((times - self.start_s) // self.slot_s).astype(np.int64)
        cols, keep = admit_reports(segs, speeds, self._sorted_ids, self._sorter)
        late = 0
        if slots[0] < self._current_slot:
            late = int(slots.searchsorted(self._current_slot))
            keep[:late] = False
        if obs_trace.enabled():
            _count_rejected(late, speeds[late:])

        closed: List[SlotEstimate] = []
        last_slot = int(slots[-1])
        slots, cols, speeds = slots[keep], cols[keep], speeds[keep]
        n = len(self.segment_ids)
        if slots.size:
            # Group kept reports by slot; boundaries via the sorted order.
            edges = ()
            if slots[0] != slots[-1]:
                edges = tuple(np.flatnonzero(slots[1:] != slots[:-1]) + 1)
            for lo, hi in zip((0, *edges), (*edges, slots.size)):
                slot = int(slots[lo])
                while slot > self._current_slot:
                    closed.append(self._close_slot())
                self._sums += np.bincount(
                    cols[lo:hi], weights=speeds[lo:hi], minlength=n
                )
                self._counts += np.bincount(cols[lo:hi], minlength=n)
        # Dropped trailing reports still advance the stream clock.
        while last_slot > self._current_slot:
            closed.append(self._close_slot())
        return closed

    @obs_trace.traced("scale.close_slot")
    def _close_slot(self) -> SlotEstimate:
        """Close the slot: re-complete dirty shards, stitch, publish."""
        n = len(self.segment_ids)
        mask = self._counts > 0
        values = np.zeros(n)
        np.divide(self._sums, self._counts, out=values, where=mask)

        rows: List[np.ndarray] = []
        for cols, window in zip(self._shard_cols, self._windows):
            dirty = bool(mask[cols].any())
            row = window.push(values[cols], mask[cols], recomplete=dirty)
            if dirty:
                self.recompletions += 1
            else:
                self.recompletions_skipped += 1
                if obs_trace.enabled():
                    obs_metrics.inc("scale.recompletions_skipped")
            rows.append(row[None])

        weights: Optional[np.ndarray] = None
        if self._has_halo:
            # Every window takes every slot, so a column's count is the
            # same in each window that holds it.
            weights = np.zeros(n)
            for cols, window in zip(self._shard_cols, self._windows):
                weights[cols] = window.observation_counts()
        estimate = _stitch((1, n), weights, self.shards, self._shard_cols, rows)[0]
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


def _count_rejected(late: int, live: np.ndarray) -> None:
    """Count late reports, then non-finite and overspeed ones among the rest."""
    finite = np.isfinite(live)
    for name, count in (
        ("stream.rejected_late", late),
        ("stream.rejected_nonfinite", live.size - np.count_nonzero(finite)),
        ("stream.rejected_overspeed", np.count_nonzero(live[finite] > MAX_SPEED_KMH)),
    ):
        if count:
            obs_metrics.inc(name, int(count))
