"""Sharded Algorithm-1 completion with multilevel warm starts.

The scaling obstacle is that one monolithic Algorithm 1 run over a
metropolitan TCM (5,812 columns for inner Shanghai) pays the full sweep
budget over every column jointly.  The decomposition here exploits the
paper's own observation (Section 3.2) that the *temporal* structure —
the left factor's eigenflow columns (morning rush, evening rush,
baseline) — is shared city-wide, while the *spatial* right factor is
local.  So:

1. **Seed solve** — a few cheap ALS sweeps (``seed_iterations``, default
   5) over the full matrix produce a city-wide left factor ``L0`` (and,
   when some shard has no observations, the seed's full estimate as its
   fallback).
2. **Per-shard refinement** — every shard runs ``warm_iterations``
   (default 8) ALS sweeps over its own columns only, warm-started from
   ``L0`` via :func:`repro.core.streaming._warm_complete`.  No random
   init, so the per-shard work is deterministic and embarrassingly
   parallel over :func:`repro.utils.parallel.parallel_map` in either
   working dtype.
3. **Stitch** — shard estimates are merged into the full-network
   matrix; columns estimated by several shards (halo overlap) are
   reconciled by observation-count-weighted averaging, accumulated in
   ``shard_id`` order so the result is independent of completion order.

Total sweep cost is ``seed + warm`` instead of the monolithic budget
(e.g. 13 effective sweeps vs 60 at the benchmark settings), which is
where the >=3x wall-clock win comes from; the measured accuracy delta
against monolithic on the metro benchmark stays well under 1e-2 NMAE.

A partition with one shard runs the **exact** regime, and so does
``seed_iterations=0`` for any partition: every shard is solved cold
with the full ``iterations`` budget and the completer's own seed, which
makes each shard bit-for-bit identical to a monolithic completion of
that shard's sub-TCM (and the whole output bit-identical to monolithic
when ``shards=1`` or ``halo=0`` partitions are used).  A seed solve over
one shard would already be the whole problem, so a one-shard
:class:`ShardedEstimator` *is* the monolithic Algorithm 1 estimate.
This regime is what the determinism harness and the property tests pin
down.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.completion import (
    PAPER_ITERATIONS,
    PAPER_LAMBDA,
    PAPER_RANK,
    CompletionResult,
    CompressiveSensingCompleter,
    DTypeLike,
    ObservedCells,
)
from repro.core.streaming import _warm_complete
from repro.core.tcm import TimeGrid, TrafficConditionMatrix
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.probes.aggregation import AggregationConfig, aggregate_reports
from repro.probes.report import ReportBatch
from repro.scale.partition import (
    Columns,
    Shard,
    _segment_ids,
    make_partitioner,
    validate_shards,
)
from repro.utils.contracts import shapes
from repro.utils.parallel import parallel_map
from repro.utils.rng import SeedLike

__all__ = [
    "ShardResult",
    "ShardedCompleter",
    "ShardedCompletionResult",
    "ShardedEstimationOutput",
    "ShardedEstimator",
]


@dataclass(frozen=True)
class ShardResult:
    """Per-shard solve summary (for manifests and diagnostics)."""

    shard_id: int
    num_core: int
    num_halo: int
    observed_cells: int
    objective: float
    iterations_run: int


@dataclass(frozen=True)
class ShardedCompletionResult:
    """A sharded completion's artifacts.

    Attributes
    ----------
    estimate:
        The stitched full-network estimate matrix (slots x segments).
    shards:
        Per-shard solve summaries, in ``shard_id`` order.
    mode:
        ``"multilevel"`` (seed + warm refinement) or ``"exact"``
        (cold full-budget per-shard solves).
    seed_objective:
        Final objective of the city-wide seed solve (multilevel only).
    offset:
        Observed-mean offset removed before solving (0 when centering
        is off or handled by the per-shard completers).
    stitch_s:
        Wall-clock seconds spent reconciling shard estimates.
    """

    estimate: np.ndarray
    shards: List[ShardResult]
    mode: str
    seed_objective: Optional[float]
    offset: float
    stitch_s: float


@dataclass(frozen=True)
class _ShardIndex:
    """Shards checked against one column order and indexed into it.

    ``ordered`` holds the shards by ``shard_id``; ``cols[i]`` the matrix
    columns of ``ordered[i]``'s segments, ascending (the shard block
    keeps the matrix's column order), and ``local[i]`` the inverse map:
    the block column of every matrix column, -1 outside the shard.
    """

    ordered: List[Shard]
    cols: List[np.ndarray]
    local: List[np.ndarray]

    @classmethod
    def build(
        cls, shards: Sequence[Shard], segment_ids: Sequence[int]
    ) -> "_ShardIndex":
        validate_shards(shards, segment_ids)
        col_of = {sid: j for j, sid in enumerate(segment_ids)}
        ordered = sorted(shards, key=lambda s: s.shard_id)
        cols = [
            np.sort(np.array([col_of[sid] for sid in shard.all_ids], dtype=np.intp))
            for shard in ordered
        ]
        local = []
        for shard_cols in cols:
            inverse = np.full(len(col_of), -1, dtype=np.intp)
            inverse[shard_cols] = np.arange(shard_cols.size)
            local.append(inverse)
        return cls(ordered, cols, local)

    def cut(self, i: int, cells: ObservedCells) -> ObservedCells:
        """The cells of shard ``ordered[i]``'s block, row by row.

        The block's columns ascend as the matrix's do, so the cells
        keep the matrix's row-major order.
        """
        pos = self.local[i][cells.cols]
        keep = np.flatnonzero(pos >= 0)
        return ObservedCells(
            (cells.shape[0], self.cols[i].size),
            cells.rows[keep],
            pos[keep],
            cells.values[keep],
        )


class ShardedCompleter:
    """Complete a TCM shard-by-shard and stitch the results.

    Parameters
    ----------
    rank, lam:
        Algorithm 1 parameters (paper defaults r=2, lambda=100).
    iterations:
        Full sweep budget — used per shard in the exact regime (one
        shard, or ``seed_iterations=0``), matching what a monolithic
        completer would spend.
    seed_iterations:
        Sweeps of the city-wide seed solve.  ``0`` selects the exact
        regime for any partition; the default 5 is the benchmarked
        multilevel setting.  A one-shard partition always runs exact.
    warm_iterations:
        Per-shard refinement sweeps in the multilevel regime.
    dtype:
        Working dtype, forwarded to every
        :class:`CompressiveSensingCompleter` built here.
    clip_min, clip_max:
        Final estimate clamp (applied once, after stitching, in the
        multilevel regime; forwarded to the per-shard completers in the
        exact regime so shard outputs match monolithic bit-for-bit).
    center:
        Solve around the observed mean.  In the multilevel regime the
        offset is removed once, globally, so the seed factor and every
        shard refinement share one residual space; in the exact regime
        each shard centres on its own mean, as a monolithic completer.
    max_workers:
        Worker pool for the per-shard solves (threads; per-shard solves
        release the GIL inside BLAS).  ``None``/``0``/``1`` run serially
        — bit-identical to the pool path because shard solves draw no
        randomness after dispatch and stitching is ``shard_id``-ordered.
    seed:
        Seeds the seed solve's random init (multilevel) or every
        per-shard cold init (exact).
    """

    def __init__(
        self,
        rank: int = PAPER_RANK,
        lam: float = PAPER_LAMBDA,
        iterations: int = PAPER_ITERATIONS,
        seed_iterations: int = 5,
        warm_iterations: int = 8,
        dtype: DTypeLike = None,
        clip_min: Optional[float] = None,
        clip_max: Optional[float] = None,
        center: bool = False,
        max_workers: Optional[int] = None,
        seed: SeedLike = None,
    ) -> None:
        if seed_iterations < 0:
            raise ValueError(
                f"seed_iterations must be >= 0, got {seed_iterations}"
            )
        if warm_iterations < 1:
            raise ValueError(
                f"warm_iterations must be >= 1, got {warm_iterations}"
            )
        self.rank = rank
        self.lam = lam
        self.iterations = iterations
        self.seed_iterations = seed_iterations
        self.warm_iterations = warm_iterations
        self.dtype = dtype
        self.clip_min = clip_min
        self.clip_max = clip_max
        self.center = center
        self.max_workers = max_workers
        self._seed = seed
        # Validate the completer configuration eagerly (same checks the
        # completer applies) so bad settings fail before any solve.
        self._make_completer(iterations=1, clip=False)
        self._inflight = 0
        self._inflight_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _make_completer(
        self, iterations: int, clip: bool, center: bool = False
    ) -> CompressiveSensingCompleter:
        return CompressiveSensingCompleter(
            rank=self.rank,
            lam=self.lam,
            iterations=iterations,
            dtype=self.dtype,
            clip_min=self.clip_min if clip else None,
            clip_max=self.clip_max if clip else None,
            center=center,
            seed=self._seed,
        )

    @shapes(TrafficConditionMatrix)
    def complete(
        self,
        measurements: TrafficConditionMatrix,
        shards: Sequence[Shard],
    ) -> ShardedCompletionResult:
        """Run per-shard completion over ``shards`` and stitch.

        ``shards`` must come from a partitioner over the same segment
        set as ``measurements`` (cores partition the columns exactly).
        A measurement with nothing observed raises ``ValueError``, and
        so does a shard with nothing observed in the exact regime; the
        multilevel regime answers such a shard with the seed estimate.
        """
        return self._complete(
            measurements, _ShardIndex.build(shards, measurements.segment_ids)
        )

    def _complete(
        self, measurements: TrafficConditionMatrix, index: _ShardIndex
    ) -> ShardedCompletionResult:
        """:meth:`complete` over shards already checked and indexed.

        Both regimes work from the measurement's observed cells
        (:attr:`TrafficConditionMatrix.observed_cells`): the offset, the
        column counts, the seed and the shard blocks all cost
        O(observed), and only a dense-layout solve scatters its cells
        into an array.
        """
        m, n = measurements.shape
        flat, cell_values = measurements.observed_cells
        rows, cols = np.divmod(flat, n)
        col_obs = np.bincount(cols, minlength=n)
        # A seed solve over one shard would be the whole problem cut
        # short: one shard is solved cold, as a monolithic completion.
        exact = self.seed_iterations == 0 or len(index.ordered) == 1
        mode = "exact" if exact else "multilevel"
        offset = 0.0
        if not exact and self.center and flat.size:
            # Exact-regime shards centre on their own observed mean.
            offset = float(cell_values.mean())
        cells = ObservedCells((m, n), rows, cols, cell_values - offset)
        seed_left: Optional[np.ndarray] = None
        seed_objective: Optional[float] = None
        fallback: Optional[np.ndarray] = None
        if not exact:
            seed_left, seed_objective, fallback = self._solve_seed(
                cells, col_obs, index.cols
            )
        sub_results = self._solve_shards(cells, index, seed_left, fallback)

        started = time.perf_counter()
        with obs_trace.span("scale.stitch", shards=len(index.ordered)):
            estimate = _stitch(
                (m, n),
                col_obs,
                index.ordered,
                index.cols,
                [res.estimate for res in sub_results],
            )
        stitch_s = time.perf_counter() - started
        if obs_trace.enabled():
            obs_metrics.observe("scale.stitch_s", stitch_s)

        if not exact:
            # _stitch returned a fresh buffer; finish it in place.
            estimate += offset
            if self.clip_min is not None or self.clip_max is not None:
                np.clip(estimate, self.clip_min, self.clip_max, out=estimate)

        shard_summaries = [
            ShardResult(
                shard_id=shard.shard_id,
                num_core=len(shard.core_ids),
                num_halo=len(shard.halo_ids),
                observed_cells=int(col_obs[shard_cols].sum()),
                objective=float(res.objective),
                iterations_run=int(res.iterations_run),
            )
            for shard, shard_cols, res in zip(index.ordered, index.cols, sub_results)
        ]
        return ShardedCompletionResult(
            estimate=estimate,
            shards=shard_summaries,
            mode=mode,
            seed_objective=seed_objective,
            offset=offset,
            stitch_s=stitch_s,
        )

    # ------------------------------------------------------------------
    @shapes(None, "n")
    def _solve_seed(
        self,
        cells: ObservedCells,
        col_obs: np.ndarray,
        cols_per_shard: Sequence[np.ndarray],
    ) -> Tuple[np.ndarray, float, Optional[np.ndarray]]:
        """City-wide low-budget solve producing the shared left factor.

        Returns ``(L0, objective, fallback)``.  The fallback, the seed's
        full ``L R^T`` estimate, answers for the tiles with nothing
        observed; it is formed only when such a tile exists (``None``
        otherwise), which saves an (m, n) product on every estimate of a
        network whose tiles all see traffic.
        """
        completer = self._make_completer(
            iterations=self.seed_iterations, clip=False
        )
        with obs_trace.span("scale.seed_solve", sweeps=self.seed_iterations):
            fit = completer._fit(cells)
        fallback = None
        if not all(col_obs[cols].any() for cols in cols_per_shard):
            fallback = completer._estimate(fit.left, fit.right, fit.offset)
        return fit.left, fit.objective, fallback

    @shapes(None, None, "m r", "m n")
    def _solve_shards(
        self,
        cells: ObservedCells,
        index: _ShardIndex,
        seed_left: Optional[np.ndarray],
        fallback: Optional[np.ndarray],
    ) -> List[CompletionResult]:
        """Per-shard solves, each on its own cells (:meth:`_ShardIndex.cut`).

        With ``seed_left`` ``None`` every shard is solved cold with the
        full budget, centred and clipped on its own: the exact regime,
        each shard a monolithic completion of its block.  Otherwise each
        shard refines warm from the city-wide left factor, and
        ``fallback``, the seed estimate, is given exactly when some tile
        has nothing observed.
        """

        def solve(i: int) -> CompletionResult:
            with self._track_inflight():
                sub = index.cut(i, cells)
                if seed_left is None:
                    completer = self._make_completer(
                        iterations=self.iterations, clip=True, center=self.center
                    )
                    return completer.complete(sub)
                if fallback is not None and not sub.values.size:
                    # Nothing observed in this tile: the seed estimate is
                    # the best available answer for its columns.
                    cols = index.cols[i]
                    return CompletionResult(
                        estimate=fallback[:, cols],
                        left=seed_left,
                        right=np.zeros((cols.size, seed_left.shape[1])),
                        objective=float("nan"),
                        objective_history=[],
                        iterations_run=0,
                    )
                completer = self._make_completer(
                    iterations=self.warm_iterations, clip=False
                )
                return _warm_complete(completer, sub, None, seed_left)

        return parallel_map(
            solve,
            range(len(index.ordered)),
            max_workers=self.max_workers,
            backend="thread",
            span_name="scale.shard_solve",
        )

    def _track_inflight(self):
        """Context manager maintaining the shards-in-flight gauge."""
        completer = self

        class _Tracker:
            def __enter__(self) -> None:
                if obs_trace.enabled():
                    with completer._inflight_lock:
                        completer._inflight += 1
                        obs_metrics.set_gauge(
                            "scale.shards_inflight", completer._inflight
                        )

            def __exit__(self, *exc) -> None:
                if obs_trace.enabled():
                    with completer._inflight_lock:
                        completer._inflight -= 1
                        obs_metrics.set_gauge(
                            "scale.shards_inflight", completer._inflight
                        )
                    obs_metrics.inc("scale.shard_solves")

        return _Tracker()


#: Rows the halo stitch gathers at a time: small enough that one band
#: of every shard block stays in cache.
_STITCH_ROWS = 16


@shapes(None, "n")
def _stitch(
    shape: Tuple[int, int],
    weights: Optional[np.ndarray],
    ordered: Sequence[Shard],
    cols_per_shard: Sequence[np.ndarray],
    estimates: Sequence[np.ndarray],
) -> np.ndarray:
    """Merge per-shard estimate blocks into the full ``shape`` matrix.

    ``estimates[i]`` holds shard ``ordered[i]``'s columns
    ``cols_per_shard[i]``; ``weights`` are per-column observation counts
    (unused, and may be ``None``, when no shard has a halo).  Disjoint
    shards place their columns directly — bit-for-bit passthrough, the
    exact-equivalence regime.  With halos, most columns still have
    exactly one contributing shard (a halo only covers the tile fringe),
    so single-owner columns are copied as they are and only the
    *contested* columns — those inside at least one other shard's halo —
    pay for reconciliation: observation-count-weighted averaging,
    falling back to the unweighted mean of the contributions when no
    shard observed the column.  Contributions are always summed in
    ``shard_id`` order (``ordered`` is pre-sorted), so the stitched
    matrix does not depend on which shard finished first.

    The halo case works on bands of :data:`_STITCH_ROWS` rows: a band of
    every shard block is laid side by side in one buffer, the merged
    contested columns are appended to it, and one ``take`` gathers the
    band's output row by row.  This replaces column scatters into the
    C-ordered output, which cost more than the merge itself.
    """
    m, n = shape
    out = np.empty((m, n))
    if all(not shard.halo_ids for shard in ordered):
        for cols, est in zip(cols_per_shard, estimates):
            if cols.size and np.all(np.diff(cols) == 1):
                # A run of adjacent columns (one shard, or a contiguous
                # one) is a slice: a plain copy, several times cheaper
                # than a column scatter into the C-ordered rows.
                out[:, cols[0] : cols[-1] + 1] = est
            else:
                out[:, cols] = est
        return out

    # Position of every (shard, column) pair in the side-by-side band,
    # grouped by global column and, within a column, in shard order.
    placed = np.concatenate(cols_per_shard)
    total = placed.size
    by_column = np.argsort(placed, kind="stable")
    owners = np.bincount(placed, minlength=n)
    first = np.cumsum(owners) - owners
    src = by_column[first]  # single-owner columns: their only position

    # A column's weight is the same in every shard that holds it, so a
    # contested column is weighted in all of its shards or observed in
    # none ("silent": plain mean).  Each kind is ordered by owner count,
    # descending, so the columns with more than r owners are a prefix.
    obs_counts = np.asarray(weights, dtype=np.float64)
    contested = owners > 1
    silent = contested & (obs_counts == 0)
    merges = []
    offset = total
    for kind, weighted in ((contested & ~silent, True), (silent, False)):
        cols = np.flatnonzero(kind)
        cols = cols[np.argsort(-owners[cols], kind="stable")]
        src[cols] = offset + np.arange(cols.size)
        scale = obs_counts[cols] if weighted else np.ones(cols.size)
        steps, norm = [], np.zeros(cols.size)
        for r in range(int(owners[cols].max(initial=0))):
            k = int(np.count_nonzero(owners[cols] > r))
            steps.append((k, by_column[first[cols[:k]] + r]))
            norm[:k] += scale[:k]
        merges.append((offset, cols.size, steps, scale if weighted else None, norm))
        offset += cols.size

    band = np.empty((_STITCH_ROWS, offset))
    for lo in range(0, m, _STITCH_ROWS):
        hi = min(lo + _STITCH_ROWS, m)
        part = band[: hi - lo]
        np.concatenate([est[lo:hi] for est in estimates], axis=1, out=part[:, :total])
        for start, k, steps, scale, norm in merges:
            acc = part[:, start : start + k]
            acc[...] = 0.0
            for kr, positions in steps:
                contribution = part[:, positions]
                if scale is not None:
                    contribution *= scale[:kr]
                acc[:, :kr] += contribution
            acc /= norm
        np.take(part, src, axis=1, out=out[lo:hi], mode="clip")
    return out


@dataclass(frozen=True)
class ShardedEstimationOutput:
    """An estimation run's artifacts.

    Attributes
    ----------
    estimate:
        A *complete* :class:`TrafficConditionMatrix` over every column;
        the ``apps/`` services consume it directly.  Its values are
        :attr:`completion`'s estimate array itself, read-only.
    measurements:
        The partial measurement TCM the estimate was computed from.
    completion:
        The raw sharded result (per-shard summaries, stitch timing).
    """

    estimate: TrafficConditionMatrix
    measurements: TrafficConditionMatrix
    completion: ShardedCompletionResult


class ShardedEstimator:
    """Batch traffic estimation (Algorithm 1) over spatial shards.

    The one batch estimator, from paper scale to a metropolis: it
    partitions the columns once at construction, then every
    :meth:`estimate` call runs the sharded completion and returns a
    complete TCM that ``apps/`` services consume unchanged.
    ``partitioner="single"`` is the monolithic solve: one shard runs
    the exact regime, bit-identical to
    ``CompressiveSensingCompleter(center=True, clip_min=0,
    clip_max=aggregation.max_speed_kmh)``.  Tune ``(rank, lam)`` with
    :class:`repro.core.tuning.GeneticTuner` first; the paper runs
    Algorithm 2 "only once for a given set of road segments".

    Parameters
    ----------
    network:
        The road network whose sorted segment ids define the TCM
        columns, or a TCM's segment ids (in its column order) when
        there is no network; the ``grid`` partitioner needs a network.
    shards:
        Target shard count (the realized count can be lower if some
        tiles are empty; see :class:`repro.scale.partition.GridPartitioner`).
    halo:
        Overlap depth in segment-adjacency hops (grid partitioner only).
    partitioner:
        Registered partitioner name (``"grid"``/``"single"``/
        ``"contiguous"``) or a ready partitioner instance.
    rank, lam, iterations, seed_iterations, warm_iterations:
        Completion budgets, as in :class:`ShardedCompleter`.
    aggregation:
        Report-to-matrix aggregation settings; estimates are clamped
        into ``[0, aggregation.max_speed_kmh]`` km/h.
    center:
        Solve around the observed mean (the production default: the
        regularizer then shrinks toward the mean speed, not toward 0).
    dtype, max_workers, seed:
        Forwarded to the underlying :class:`ShardedCompleter`.
    """

    def __init__(
        self,
        network: Columns,
        shards: int = 4,
        halo: int = 1,
        partitioner: Union[str, object] = "grid",
        rank: int = PAPER_RANK,
        lam: float = PAPER_LAMBDA,
        iterations: int = PAPER_ITERATIONS,
        seed_iterations: int = 5,
        warm_iterations: int = 8,
        aggregation: Optional[AggregationConfig] = None,
        center: bool = True,
        dtype: DTypeLike = None,
        max_workers: Optional[int] = None,
        seed: SeedLike = None,
    ) -> None:
        self.segment_ids = [int(s) for s in _segment_ids(network)]
        if isinstance(partitioner, str):
            partitioner = make_partitioner(partitioner, shards, halo=halo)
        self.partitioner = partitioner
        with obs_trace.span("scale.partition", shards=shards, halo=halo):
            self.shards = partitioner.partition(network)
        # Checked and indexed once; every estimate reuses the index.
        self._index = _ShardIndex.build(self.shards, self.segment_ids)
        self.aggregation = aggregation or AggregationConfig()
        self.completer = ShardedCompleter(
            rank=rank,
            lam=lam,
            iterations=iterations,
            seed_iterations=seed_iterations,
            warm_iterations=warm_iterations,
            dtype=dtype,
            clip_min=0.0,
            clip_max=self.aggregation.max_speed_kmh,
            center=center,
            max_workers=max_workers,
            seed=seed,
        )

    @property
    def num_shards(self) -> int:
        """Realized shard count after empty tiles are dropped."""
        return len(self.shards)

    # ------------------------------------------------------------------
    @shapes(ReportBatch, TimeGrid)
    def aggregate(
        self, reports: ReportBatch, grid: TimeGrid
    ) -> TrafficConditionMatrix:
        """Turn probe reports into the measurement TCM over every column."""
        return aggregate_reports(reports, grid, self.segment_ids, self.aggregation)

    @shapes(ReportBatch, TimeGrid)
    def estimate_from_reports(
        self, reports: ReportBatch, grid: TimeGrid
    ) -> ShardedEstimationOutput:
        """Full pipeline: aggregate reports, then sharded completion."""
        with obs_trace.span(
            "scale.estimate_from_reports", reports=int(reports.times_s.size)
        ):
            measurements = self.aggregate(reports, grid)
            return self.estimate(measurements)

    @shapes(TrafficConditionMatrix)
    def estimate(
        self, measurements: TrafficConditionMatrix
    ) -> ShardedEstimationOutput:
        """Complete a measurement TCM via the sharded pipeline."""
        if list(measurements.segment_ids) != self.segment_ids:
            raise ValueError(
                "measurement TCM columns do not match the partitioned "
                "segment ids"
            )
        with obs_trace.span("scale.estimate", shards=len(self.shards)):
            result = self.completer._complete(measurements, self._index)
        # The stitched estimate is a fresh buffer nothing else writes
        # to: the TCM keeps it (read-only) instead of a copy.
        estimate_tcm = TrafficConditionMatrix._full_of(
            result.estimate,
            grid=measurements.grid,
            segment_ids=measurements.segment_ids,
        )
        return ShardedEstimationOutput(
            estimate=estimate_tcm,
            measurements=measurements,
            completion=result,
        )
