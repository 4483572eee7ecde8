"""Sharded Algorithm-1 completion with multilevel warm starts.

The scaling obstacle is that one monolithic Algorithm 1 run over a
metropolitan TCM (5,812 columns for inner Shanghai) pays the full sweep
budget over every column jointly.  The decomposition here exploits the
paper's own observation (Section 3.2) that the *temporal* structure —
the left factor's eigenflow columns (morning rush, evening rush,
baseline) — is shared city-wide, while the *spatial* right factor is
local.  So:

1. **Seed solve** — a few cheap ALS sweeps (``seed_iterations``, default
   5) over the full matrix produce a city-wide left factor ``L0`` (and a
   complete fallback estimate for shards with no observations).
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

Setting ``seed_iterations=0`` switches to the **exact** regime: every
shard is solved cold with the full ``iterations`` budget and the
completer's own seed, which makes each shard bit-for-bit identical to a
monolithic completion of that shard's sub-TCM (and the whole output
bit-identical to monolithic when ``shards=1`` or ``halo=0`` partitions
are used).  This regime is what the determinism harness and the
property tests pin down.
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
)
from repro.core.streaming import _warm_complete
from repro.core.tcm import TimeGrid, TrafficConditionMatrix
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.probes.aggregation import AggregationConfig, aggregate_reports
from repro.probes.report import ReportBatch
from repro.roadnet.network import RoadNetwork
from repro.scale.partition import Shard, make_partitioner, validate_shards
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


class ShardedCompleter:
    """Complete a TCM shard-by-shard and stitch the results.

    Parameters
    ----------
    rank, lam:
        Algorithm 1 parameters (paper defaults r=2, lambda=100).
    iterations:
        Full sweep budget — used per shard in the exact regime
        (``seed_iterations=0``), matching what a monolithic completer
        would spend.
    seed_iterations:
        Sweeps of the city-wide seed solve.  ``0`` selects the exact
        regime; the default 5 is the benchmarked multilevel setting.
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
        shard refinement share one residual space.
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
        """
        validate_shards(shards, measurements.segment_ids)
        values = measurements.values
        mask = measurements.mask
        col_of = {sid: j for j, sid in enumerate(measurements.segment_ids)}
        ordered = sorted(shards, key=lambda s: s.shard_id)
        cols_per_shard = [
            np.array([col_of[sid] for sid in shard.all_ids], dtype=np.intp)
            for shard in ordered
        ]

        if self.seed_iterations == 0:
            sub_results = self._solve_exact(values, mask, cols_per_shard)
            mode, seed_objective, offset = "exact", None, 0.0
            fallback: Optional[np.ndarray] = None
        else:
            mode = "multilevel"
            offset = 0.0
            if self.center:
                offset = float(values[mask].mean()) if mask.any() else 0.0
                values = np.where(mask, values - offset, 0.0)
            seed_result = self._solve_seed(values, mask)
            seed_objective = seed_result.objective
            fallback = seed_result.estimate
            sub_results = self._solve_warm(
                values, mask, cols_per_shard, seed_result.left, fallback
            )

        started = time.perf_counter()
        with obs_trace.span("scale.stitch", shards=len(ordered)):
            estimate = _stitch(
                values.shape, mask, ordered, cols_per_shard, sub_results
            )
        stitch_s = time.perf_counter() - started
        if obs_trace.enabled():
            obs_metrics.observe("scale.stitch_s", stitch_s)

        if mode == "multilevel":
            # _stitch returned a fresh buffer; finish it in place.
            estimate += offset
            if self.clip_min is not None or self.clip_max is not None:
                np.clip(estimate, self.clip_min, self.clip_max, out=estimate)

        col_obs = mask.sum(axis=0)
        shard_summaries = [
            ShardResult(
                shard_id=shard.shard_id,
                num_core=len(shard.core_ids),
                num_halo=len(shard.halo_ids),
                observed_cells=int(col_obs[cols].sum()),
                objective=float(res.objective),
                iterations_run=int(res.iterations_run),
            )
            for shard, cols, res in zip(ordered, cols_per_shard, sub_results)
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
    @shapes("m n", "m n:bool")
    def _solve_seed(
        self, values: np.ndarray, mask: np.ndarray
    ) -> CompletionResult:
        """City-wide low-budget solve producing the shared left factor."""
        completer = self._make_completer(
            iterations=self.seed_iterations, clip=False
        )
        with obs_trace.span("scale.seed_solve", sweeps=self.seed_iterations):
            return completer.complete(values, mask)

    @shapes("m n", "m n:bool")
    def _solve_exact(
        self,
        values: np.ndarray,
        mask: np.ndarray,
        cols_per_shard: Sequence[np.ndarray],
    ) -> List[CompletionResult]:
        """Cold full-budget per-shard solves (monolithic-equivalent)."""

        def solve(cols: np.ndarray) -> CompletionResult:
            completer = self._make_completer(
                iterations=self.iterations, clip=True, center=self.center
            )
            with self._track_inflight():
                # Column fancy-indexing yields a non-contiguous view copy;
                # BLAS takes a different (reordered) summation path on it,
                # which would break bit-for-bit monolithic equivalence.
                return completer.complete(
                    np.ascontiguousarray(values[:, cols]),
                    np.ascontiguousarray(mask[:, cols]),
                )

        return parallel_map(
            solve,
            cols_per_shard,
            max_workers=self.max_workers,
            backend="thread",
            span_name="scale.shard_solve",
        )

    @shapes("m n", "m n:bool", None, "m r", "m n")
    def _solve_warm(
        self,
        values: np.ndarray,
        mask: np.ndarray,
        cols_per_shard: Sequence[np.ndarray],
        seed_left: np.ndarray,
        fallback: np.ndarray,
    ) -> List[CompletionResult]:
        """Warm per-shard refinements from the city-wide left factor."""

        def solve(cols: np.ndarray) -> CompletionResult:
            sub_b = np.ascontiguousarray(mask[:, cols])
            with self._track_inflight():
                if not sub_b.any():
                    # Nothing observed in this tile: the seed estimate is
                    # the best available answer for its columns.
                    sub_est = fallback[:, cols]
                    return CompletionResult(
                        estimate=sub_est,
                        left=seed_left,
                        right=np.zeros((cols.size, seed_left.shape[1])),
                        objective=float("nan"),
                        objective_history=[],
                        iterations_run=0,
                    )
                completer = self._make_completer(
                    iterations=self.warm_iterations, clip=False
                )
                return _warm_complete(
                    completer, values[:, cols], sub_b, seed_left
                )

        return parallel_map(
            solve,
            cols_per_shard,
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


@shapes(None, "m n:bool")
def _stitch(
    shape: Tuple[int, int],
    mask: np.ndarray,
    ordered: Sequence[Shard],
    cols_per_shard: Sequence[np.ndarray],
    sub_results: Sequence[CompletionResult],
) -> np.ndarray:
    """Merge shard estimates into the full matrix.

    Disjoint shards (no halos anywhere) place their columns directly —
    bit-for-bit passthrough, the exact-equivalence regime.  With halos,
    most columns still have exactly one contributing shard (a halo only
    covers the tile fringe), so single-owner columns are placed directly
    too and only the *contested* columns — those inside at least one
    other shard's halo — pay for reconciliation: observation-count-
    weighted averaging, falling back to the unweighted mean of the
    contributions when no shard observed the column.  Accumulation
    always runs in ``shard_id`` order (``ordered`` is pre-sorted), so
    the stitched matrix does not depend on which shard finished first.
    """
    m, n = shape
    out = np.empty((m, n))
    if all(not shard.halo_ids for shard in ordered):
        for cols, res in zip(cols_per_shard, sub_results):
            out[:, cols] = res.estimate
        return out

    owners = np.zeros(n, dtype=np.int64)
    for cols in cols_per_shard:
        owners[cols] += 1
    contested = owners > 1
    cidx = np.cumsum(contested) - 1  # global column -> contested slot
    k = int(contested.sum())

    obs_counts = mask.sum(axis=0).astype(np.float64)
    weighted_sum = np.zeros((m, k))
    weight_total = np.zeros(k)
    uniform_sum = np.zeros((m, k))
    uniform_count = np.zeros(k)
    for cols, res in zip(cols_per_shard, sub_results):
        fought = contested[cols]
        out[:, cols[~fought]] = res.estimate[:, ~fought]
        ci = cidx[cols[fought]]
        w = obs_counts[cols[fought]]
        weighted_sum[:, ci] += res.estimate[:, fought] * w
        weight_total[ci] += w
        uniform_sum[:, ci] += res.estimate[:, fought]
        uniform_count[ci] += 1.0
    merged = np.empty((m, k))
    observed_cols = weight_total > 0
    np.divide(
        weighted_sum, weight_total, out=merged, where=observed_cols[None, :]
    )
    if not observed_cols.all():
        silent = ~observed_cols
        merged[:, silent] = uniform_sum[:, silent] / uniform_count[silent]
    out[:, contested] = merged
    return out


@dataclass(frozen=True)
class ShardedEstimationOutput:
    """A sharded estimation run's artifacts (mirrors ``EstimationOutput``).

    Attributes
    ----------
    estimate:
        A *complete* :class:`TrafficConditionMatrix` over the full
        network — apps consume this exactly like a monolithic estimate.
    measurements:
        The partial measurement TCM the estimate was computed from.
    completion:
        The raw sharded result (per-shard summaries, stitch timing).
    """

    estimate: TrafficConditionMatrix
    measurements: TrafficConditionMatrix
    completion: ShardedCompletionResult


class ShardedEstimator:
    """Metropolitan-scale estimation facade over spatial shards.

    Drop-in alternative to :class:`repro.core.estimator.TrafficEstimator`
    for large networks: partitions the network once at construction,
    then every :meth:`estimate` call runs the sharded completion and
    returns a complete full-network TCM that ``apps/`` services consume
    unchanged.

    Parameters
    ----------
    network:
        The road network whose sorted segment ids define the TCM
        columns.
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
        Report-to-matrix aggregation settings.
    clip_speeds, max_speed_kmh:
        Clamp estimates into ``[0, max]`` km/h.
    center:
        Solve around the observed mean (production default, as in
        :class:`TrafficEstimator`).
    dtype, max_workers, seed:
        Forwarded to the underlying :class:`ShardedCompleter`.
    """

    def __init__(
        self,
        network: RoadNetwork,
        shards: int = 4,
        halo: int = 1,
        partitioner: Union[str, object] = "grid",
        rank: int = PAPER_RANK,
        lam: float = PAPER_LAMBDA,
        iterations: int = PAPER_ITERATIONS,
        seed_iterations: int = 5,
        warm_iterations: int = 8,
        aggregation: Optional[AggregationConfig] = None,
        clip_speeds: bool = True,
        max_speed_kmh: float = 150.0,
        center: bool = True,
        dtype: DTypeLike = None,
        max_workers: Optional[int] = None,
        seed: SeedLike = None,
    ) -> None:
        self.network = network
        if isinstance(partitioner, str):
            partitioner = make_partitioner(partitioner, shards, halo=halo)
        self.partitioner = partitioner
        with obs_trace.span("scale.partition", shards=shards, halo=halo):
            self.shards = partitioner.partition(network)
        validate_shards(self.shards, network.segment_ids)
        self.aggregation = aggregation or AggregationConfig()
        self.completer = ShardedCompleter(
            rank=rank,
            lam=lam,
            iterations=iterations,
            seed_iterations=seed_iterations,
            warm_iterations=warm_iterations,
            dtype=dtype,
            clip_min=0.0 if clip_speeds else None,
            clip_max=max_speed_kmh if clip_speeds else None,
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
        """Turn probe reports into the full-network measurement TCM."""
        return aggregate_reports(
            reports, grid, self.network.segment_ids, self.aggregation
        )

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
        if list(measurements.segment_ids) != list(self.network.segment_ids):
            raise ValueError(
                "measurement TCM columns do not match the partitioned "
                "network's segment ids"
            )
        with obs_trace.span("scale.estimate", shards=len(self.shards)):
            result = self.completer.complete(measurements, self.shards)
        estimate_tcm = TrafficConditionMatrix(
            result.estimate,
            grid=measurements.grid,
            segment_ids=measurements.segment_ids,
        )
        return ShardedEstimationOutput(
            estimate=estimate_tcm,
            measurements=measurements,
            completion=result,
        )
