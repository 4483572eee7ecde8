"""Sharded online estimation: per-tile windows, dirty-tile re-completion.

Scales :class:`repro.core.streaming.StreamingEstimator` to metropolitan
networks.  Each spatial shard owns its own
:class:`repro.core.streaming.WindowCompleter` — sliding window, warm
factors, and an *independent* RNG stream (``spawn_rngs``), so whether
one tile re-completes never perturbs another tile's draws.  On a slot
close only the *dirty* shards — those whose columns actually received
reports during the slot — pay for a re-completion; clean shards just
slide their window and republish their previous row (the
``scale.recompletions_skipped`` metric counts how much work this
avoids, which at metropolitan scale with a localized fleet is most of
it).

Ingestion is columnar: :meth:`ShardedStreamingEstimator.ingest_batch`
takes a :class:`repro.probes.report.ReportBatch` and buckets the whole
batch with vectorized searchsorted/bincount passes — the path the
million-report benchmark drives.  Reports whose speed is not finite are
dropped before bucketing (one ``inf`` would otherwise poison its shard's
window for ``window_slots`` slots) and counted as
``stream.rejected_nonfinite``.  Reports for an already-closed slot are
dropped on every ingest path and counted once, as
``stream.rejected_late``, whatever their speed.

Each shard's re-completion stops at convergence, capped by the sweep
budgets, and runs at the full rank once its window is long enough (see
:mod:`repro.core.streaming`).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.completion import PAPER_LAMBDA, PAPER_RANK, DTypeLike
from repro.core.streaming import SlotEstimate, WindowCompleter
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.probes.aggregation import _column_lookup, _columns_of
from repro.probes.report import ProbeReport, ReportBatch
from repro.roadnet.network import RoadNetwork
from repro.scale.partition import Shard, make_partitioner, validate_shards
from repro.utils.contracts import shapes
from repro.utils.rng import SeedLike, spawn_rngs
from repro.utils.validation import check_positive

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
        :class:`repro.scale.sharded.ShardedEstimator`.
    slot_s, window_slots, start_s:
        Stream timing, as in :class:`StreamingEstimator`.
    rank, lam, warm_iterations, cold_iterations:
        Per-shard completion settings and sweep caps, as in
        :class:`WindowCompleter`.
    min_speed_kmh:
        Idle-report filter threshold.
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
        min_speed_kmh: float = 2.0,
        dtype: DTypeLike = None,
        seed: SeedLike = None,
    ) -> None:
        check_positive(slot_s, "slot_s")
        self.network = network
        self.segment_ids = [int(s) for s in network.segment_ids]
        if isinstance(partitioner, str):
            partitioner = make_partitioner(partitioner, shards, halo=halo)
        self.partitioner = partitioner
        with obs_trace.span("scale.partition", shards=shards, halo=halo):
            self.shards: List[Shard] = sorted(
                partitioner.partition(network), key=lambda s: s.shard_id
            )
        validate_shards(self.shards, self.segment_ids)
        self.slot_s = slot_s
        self.window_slots = window_slots
        self.start_s = start_s
        self.min_speed_kmh = min_speed_kmh

        n = len(self.segment_ids)
        col_of = {sid: j for j, sid in enumerate(self.segment_ids)}
        self._shard_cols = [
            np.array([col_of[sid] for sid in shard.all_ids], dtype=np.intp)
            for shard in self.shards
        ]
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

    # ------------------------------------------------------------------
    @shapes(ProbeReport)
    def ingest(self, report: ProbeReport) -> List[SlotEstimate]:
        """Feed one report; returns estimates for any slots that closed."""
        slot = int((report.time_s - self.start_s) // self.slot_s)
        if slot < self._current_slot:
            obs_metrics.inc("stream.rejected_late")
            return []
        closed: List[SlotEstimate] = []
        while slot > self._current_slot:
            closed.append(self._close_slot())
        if not math.isfinite(report.speed_kmh):
            obs_metrics.inc("stream.rejected_nonfinite")
            return closed
        if report.segment_id >= 0 and report.speed_kmh >= self.min_speed_kmh:
            cols, known = _columns_of(
                np.array([report.segment_id], dtype=np.int64),
                self._sorted_ids,
                self._sorter,
            )
            if known[0]:
                self._sums[cols[0]] += report.speed_kmh
                self._counts[cols[0]] += 1
        return closed

    @obs_trace.traced("scale.ingest_batch")
    @shapes(ReportBatch)
    def ingest_batch(self, batch: ReportBatch) -> List[SlotEstimate]:
        """Feed a columnar report batch (the million-report path).

        The batch is bucketed with vectorized passes: one filter, one
        searchsorted column lookup, one slot assignment, then a bincount
        accumulation per distinct slot in the batch.  Slots close in
        order as the stream advances past them, exactly as with
        report-at-a-time :meth:`ingest`.  Late reports and non-finite
        speeds are dropped and counted (``stream.rejected_late``, then
        ``stream.rejected_nonfinite`` for the rest).
        """
        if not len(batch):
            return []
        times = batch.times_s
        speeds = batch.speeds_kmh
        segs = batch.segment_ids
        # ReportBatch guarantees time order, so slots are non-decreasing
        # and the late reports are a prefix.
        slots = ((times - self.start_s) // self.slot_s).astype(np.int64)
        late = int(np.searchsorted(slots, self._current_slot))
        keep = np.isfinite(speeds)
        keep[:late] = False
        nonfinite = keep.size - late - int(np.count_nonzero(keep))
        if late:
            obs_metrics.inc("stream.rejected_late", late)
        if nonfinite:
            obs_metrics.inc("stream.rejected_nonfinite", nonfinite)
        keep &= (segs >= 0) & (speeds >= self.min_speed_kmh)
        cols, known = _columns_of(segs, self._sorted_ids, self._sorter)
        keep &= known

        closed: List[SlotEstimate] = []
        last_slot = int(slots[-1])
        slots, cols, speeds = slots[keep], cols[keep], speeds[keep]
        n = len(self.segment_ids)
        if slots.size:
            # Group kept reports by slot; boundaries via the sorted order.
            starts = np.flatnonzero(np.r_[True, slots[1:] != slots[:-1]])
            ends = np.r_[starts[1:], slots.size]
            for lo, hi in zip(starts, ends):
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

    def ingest_many(self, reports: Sequence[ProbeReport]) -> List[SlotEstimate]:
        """Feed loose reports (columnarized first)."""
        return self.ingest_batch(ReportBatch(reports))

    def flush(self) -> SlotEstimate:
        """Force-close the in-progress slot (e.g. at stream end)."""
        return self._close_slot()

    # ------------------------------------------------------------------
    @obs_trace.traced("scale.close_slot")
    def _close_slot(self) -> SlotEstimate:
        """Close the slot: re-complete dirty shards, stitch, publish."""
        n = len(self.segment_ids)
        mask = self._counts > 0
        values = np.zeros(n)
        np.divide(self._sums, self._counts, out=values, where=mask)

        rows: List[np.ndarray] = []
        obs_weights: List[np.ndarray] = []
        for cols, window in zip(self._shard_cols, self._windows):
            dirty = bool(mask[cols].any())
            row = window.push(values[cols], mask[cols], recomplete=dirty)
            if dirty:
                self.recompletions += 1
            else:
                self.recompletions_skipped += 1
                if obs_trace.enabled():
                    obs_metrics.inc("scale.recompletions_skipped")
            rows.append(row)
            obs_weights.append(window.observation_counts().astype(np.float64))

        estimate = self._stitch_rows(rows, obs_weights)
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

    def _stitch_rows(
        self, rows: Sequence[np.ndarray], obs_weights: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Merge per-shard estimate rows into one full-network row.

        Same reconciliation as the batch stitcher: shards are visited in
        ``shard_id`` order, overlap columns are averaged weighted by the
        shard's windowed observation count, and columns no shard has
        observed fall back to the unweighted mean of their contributions.
        Disjoint (halo-free) partitions place columns directly.
        """
        n = len(self.segment_ids)
        if all(not shard.halo_ids for shard in self.shards):
            out = np.empty(n)
            for cols, row in zip(self._shard_cols, rows):
                out[cols] = row
            return out
        weighted = np.zeros(n)
        weight_total = np.zeros(n)
        uniform = np.zeros(n)
        uniform_count = np.zeros(n)
        for cols, row, w in zip(self._shard_cols, rows, obs_weights):
            weighted[cols] += row * w
            weight_total[cols] += w
            uniform[cols] += row
            uniform_count[cols] += 1.0
        out = np.empty(n)
        observed = weight_total > 0
        np.divide(weighted, weight_total, out=out, where=observed)
        silent = ~observed
        if silent.any():
            out[silent] = uniform[silent] / uniform_count[silent]
        return out
