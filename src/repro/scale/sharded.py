"""The one batch estimator: sharded Algorithm 1 with multilevel warm starts.

The scaling obstacle is that one monolithic Algorithm 1 run over a
metropolitan TCM (5,812 columns for inner Shanghai) pays the full sweep
budget over every column jointly.  The decomposition here exploits the
paper's own observation (Section 3.2) that the *temporal* structure —
the left factor's eigenflow columns (morning rush, evening rush,
baseline) — is shared city-wide, while the *spatial* right factor is
local.  So :class:`ShardedEstimator` runs, in its **multilevel**
regime:

1. **Seed solve** — a few cheap ALS sweeps (``seed_iterations``, default
   5) over the full matrix, centred on its observed mean, produce a
   city-wide left factor ``L0`` (and, when some shard has no
   observations, the seed's full estimate as its fallback).
2. **Per-shard refinement** — every shard runs ``warm_iterations``
   (default 8) ALS sweeps over its own columns only, warm-started from
   ``L0`` (the completer's ``_fit`` with ``L0`` as its ``init``).  No
   random init, so the per-shard work is deterministic and
   embarrassingly parallel over
   :func:`repro.utils.parallel.parallel_map` in either working dtype.
3. **Stitch** — shard estimates are merged into the full-network
   matrix; columns estimated by several shards (halo overlap) are
   reconciled by observation-count-weighted averaging, accumulated in
   ``shard_id`` order so the result is independent of completion order.
   The observed mean is added back and the estimate clipped to
   ``[0, MAX_SPEED_KMH]``.

Total sweep cost is ``seed + warm`` (13 sweeps by default) instead of
the monolithic budget (``PAPER_ITERATIONS``, 100 sweeps).  The last
measurement, the ``sharded`` record of ``BENCH_2026-08-09.json``
(672 x 5,812 at 20% integrity, 16 shards, halo 1, one CPU), read a
5.05x wall-clock speedup (3.77 s -> 0.75 s) at an NMAE delta of
1.3e-4 against monolithic; it has not been re-measured since (ROADMAP
item 2).

A partition with one shard runs the **exact** regime, and so does
``seed_iterations=0`` for any partition: every shard is solved cold
with the full ``iterations`` budget and the completer's own seed,
centred and clipped on its own, which makes each shard bit-for-bit
identical to a monolithic completion of that shard's sub-TCM (and the
whole output bit-identical to monolithic when ``shards=1`` or
``halo=0`` partitions are used).  A seed solve over one shard would
already be the whole problem, so a one-shard :class:`ShardedEstimator`
*is* the monolithic Algorithm 1 estimate.  This regime is what the
determinism harness and the property tests pin down.
"""

from __future__ import annotations

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
from repro.core.tcm import TimeGrid, TrafficConditionMatrix
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.probes.aggregation import MAX_SPEED_KMH, aggregate_reports
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
        Observed-mean offset removed before solving in the multilevel
        regime (0 in the exact regime, whose shards centre on their
        own).
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

    ``ordered`` holds the shards by ``shard_id``, ``cols[i]`` the matrix
    columns of ``ordered[i]``'s segments, ascending (the shard block
    keeps the matrix's column order), and ``num_columns`` the matrix's
    column count.
    """

    ordered: List[Shard]
    cols: List[np.ndarray]
    num_columns: int

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
        return cls(ordered, cols, len(col_of))

    def cut(self, i: int, cells: ObservedCells) -> ObservedCells:
        """The cells of shard ``ordered[i]``'s block, row by row.

        The block's columns ascend as the matrix's do, so the cells
        keep the matrix's row-major order.
        """
        cols = self.cols[i]
        # The block column of every matrix column, -1 outside the shard;
        # built per cut, so an index that never cuts (the stream's)
        # holds no such maps.
        local = np.full(self.num_columns, -1, dtype=np.intp)
        local[cols] = np.arange(cols.size)
        pos = local[cells.cols]
        keep = np.flatnonzero(pos >= 0)
        return ObservedCells(
            (cells.shape[0], cols.size),
            cells.rows[keep],
            pos[keep],
            cells.values[keep],
        )


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
    :meth:`estimate` call completes the measurement shard by shard,
    stitches the shards and returns a complete TCM that ``apps/``
    services consume unchanged.  Its policy is fixed: the estimate is
    centred on the observed mean (the regularizer then shrinks toward
    the mean speed, not toward 0) and clipped to ``[0, MAX_SPEED_KMH]``.
    ``partitioner="single"`` is the monolithic solve: one shard runs
    the exact regime, bit-identical to
    ``CompressiveSensingCompleter(center=True, clip_min=0,
    clip_max=MAX_SPEED_KMH)``.  Tune ``(rank, lam)`` with
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
        ``"contiguous"``) or a ready instance: any object whose
        ``partition(network)`` returns the shards.
    rank, lam:
        Algorithm 1 parameters (paper defaults r=2, lambda=100).
    iterations:
        Full sweep budget, spent per shard in the exact regime (one
        shard, or ``seed_iterations=0``), as a monolithic completer
        would spend it.
    seed_iterations:
        Sweeps of the city-wide seed solve.  ``0`` selects the exact
        regime for any partition; the default 5 is the benchmarked
        multilevel setting.  A one-shard partition always runs exact.
    warm_iterations:
        Per-shard refinement sweeps in the multilevel regime.
    dtype:
        Working dtype of every :class:`CompressiveSensingCompleter`
        built here.
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
        network: Columns,
        shards: int = 4,
        halo: int = 1,
        partitioner: Union[str, object] = "grid",
        rank: int = PAPER_RANK,
        lam: float = PAPER_LAMBDA,
        iterations: int = PAPER_ITERATIONS,
        seed_iterations: int = 5,
        warm_iterations: int = 8,
        dtype: DTypeLike = None,
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
        self.max_workers = max_workers
        self._seed = seed
        # Validate the completer configuration eagerly (same checks the
        # completer applies) so bad settings fail before any solve.
        self._make_completer(iterations=iterations)

        self.segment_ids = [int(s) for s in _segment_ids(network)]
        if isinstance(partitioner, str):
            partitioner = make_partitioner(partitioner, shards, halo=halo)
        self.partitioner = partitioner
        with obs_trace.span("scale.partition", shards=shards, halo=halo):
            self.shards = partitioner.partition(network)
        # Checked and indexed once; every estimate reuses the index.
        self._index = _ShardIndex.build(self.shards, self.segment_ids)

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
        return aggregate_reports(reports, grid, self.segment_ids)

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
        """Complete a measurement TCM via the sharded pipeline.

        A measurement with nothing observed raises ``ValueError``, and
        so does a shard with nothing observed in the exact regime; the
        multilevel regime answers such a shard with the seed estimate.
        """
        if list(measurements.segment_ids) != self.segment_ids:
            raise ValueError(
                "measurement TCM columns do not match the partitioned "
                "segment ids"
            )
        with obs_trace.span("scale.estimate", shards=len(self.shards)):
            result = self._complete(measurements)
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

    # ------------------------------------------------------------------
    def _make_completer(
        self, iterations: int, exact: bool = False
    ) -> CompressiveSensingCompleter:
        """A completer at this estimator's rank, lam, dtype and seed.

        An exact-regime shard is centred and clipped on its own, as a
        monolithic completion; the seed and warm solves work on cells
        already centred on the global offset, and the clip follows the
        stitch.
        """
        return CompressiveSensingCompleter(
            rank=self.rank,
            lam=self.lam,
            iterations=iterations,
            dtype=self.dtype,
            clip_min=0.0 if exact else None,
            clip_max=MAX_SPEED_KMH if exact else None,
            center=exact,
            seed=self._seed,
        )

    def _complete(
        self, measurements: TrafficConditionMatrix
    ) -> ShardedCompletionResult:
        """Per-shard completion over the indexed shards, then the stitch.

        Both regimes work from the measurement's observed cells
        (:attr:`TrafficConditionMatrix.observed_cells`): the offset, the
        column counts, the seed and the shard blocks all cost
        O(observed), and only a dense-layout solve scatters its cells
        into an array.
        """
        index = self._index
        m, n = measurements.shape
        flat, cell_values = measurements.observed_cells
        rows, cols = np.divmod(flat, n)
        col_obs = np.bincount(cols, minlength=n)
        # A seed solve over one shard would be the whole problem cut
        # short: one shard is solved cold, as a monolithic completion.
        exact = self.seed_iterations == 0 or len(index.ordered) == 1
        mode = "exact" if exact else "multilevel"
        offset = 0.0
        if not exact and flat.size:
            # The multilevel regime removes the offset once, globally, so
            # the seed factor and every shard refinement share one
            # residual space; exact-regime shards centre on their own.
            offset = float(cell_values.mean())
        cells = ObservedCells((m, n), rows, cols, cell_values - offset)
        seed_left: Optional[np.ndarray] = None
        seed_objective: Optional[float] = None
        fallback: Optional[np.ndarray] = None
        if not exact:
            seed_left, seed_objective, fallback = self._solve_seed(cells, col_obs)
        sub_results = self._solve_shards(cells, seed_left, fallback)

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
            np.clip(estimate, 0.0, MAX_SPEED_KMH, out=estimate)

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
        self, cells: ObservedCells, col_obs: np.ndarray
    ) -> Tuple[np.ndarray, float, Optional[np.ndarray]]:
        """City-wide low-budget solve producing the shared left factor.

        Returns ``(L0, objective, fallback)``.  The fallback, the seed's
        full ``L R^T`` estimate, answers for the tiles with nothing
        observed; it is formed only when such a tile exists (``None``
        otherwise), which saves an (m, n) product on every estimate of a
        network whose tiles all see traffic.
        """
        completer = self._make_completer(iterations=self.seed_iterations)
        with obs_trace.span("scale.seed_solve", sweeps=self.seed_iterations):
            fit = completer._fit(cells)
        fallback = None
        if not all(col_obs[cols].any() for cols in self._index.cols):
            fallback = completer._estimate(fit.left, fit.right, fit.offset)
        return fit.left, fit.objective, fallback

    @shapes(None, "m r", "m n")
    def _solve_shards(
        self,
        cells: ObservedCells,
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
        index = self._index

        def solve(i: int) -> CompletionResult:
            sub = index.cut(i, cells)
            if seed_left is None:
                completer = self._make_completer(self.iterations, exact=True)
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
                )
            completer = self._make_completer(iterations=self.warm_iterations)
            return completer._result(completer._fit(sub, init=seed_left))

        return parallel_map(
            solve,
            range(len(index.ordered)),
            max_workers=self.max_workers,
            span_name="scale.shard_solve",
        )
