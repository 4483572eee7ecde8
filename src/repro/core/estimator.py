"""High-level traffic estimation facade.

Ties the pipeline together for library users: probe reports (or a
pre-aggregated measurement TCM) in, a completed TCM estimate out, with
optional genetic parameter tuning.  This is the public entry point the
examples and experiment harness build on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.completion import (
    PAPER_ITERATIONS,
    PAPER_LAMBDA,
    PAPER_RANK,
    CompletionResult,
    CompressiveSensingCompleter,
    DTypeLike,
)
from repro.core.tcm import TimeGrid, TrafficConditionMatrix
from repro.core.tuning import GeneticTuner, TuningResult
from repro.obs import trace as obs_trace
from repro.probes.aggregation import AggregationConfig, aggregate_reports
from repro.probes.report import ReportBatch
from repro.utils.contracts import shapes
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class EstimationOutput:
    """An estimation run's artifacts.

    Attributes
    ----------
    estimate:
        A *complete* :class:`TrafficConditionMatrix` (all cells filled).
    measurements:
        The partial measurement TCM the estimate was computed from.
    completion:
        The raw Algorithm 1 result (factors, objective trace).
    tuning:
        The Algorithm 2 result when auto-tuning was requested.
    """

    estimate: TrafficConditionMatrix
    measurements: TrafficConditionMatrix
    completion: CompletionResult
    tuning: Optional[TuningResult] = None


class TrafficEstimator:
    """Metropolitan traffic estimation from probe data.

    Parameters
    ----------
    rank, lam, iterations:
        Algorithm 1 parameters (defaults are the paper's tuned values
        r=2, lambda=100, t=100).
    auto_tune:
        Run Algorithm 2 first and use its (r, lambda).  The paper runs
        the tuner "only once for a given set of road segments"; reuse the
        tuned estimator across windows the same way.
    tuner:
        Custom :class:`GeneticTuner` (implies ``auto_tune=True``).
    aggregation:
        Report-to-matrix aggregation settings.  Estimates are clamped
        into ``[0, aggregation.max_speed_kmh]`` km/h (estimated speeds
        are physical quantities, capped like the reports they come from).
    center:
        Complete the matrix around the observed mean speed (on by
        default here: it makes the regularizer shrink toward the mean
        rather than toward zero, which is the robust production choice;
        the raw :class:`CompressiveSensingCompleter` default stays
        paper-literal).
    dtype:
        Working dtype, forwarded to the completer and, when the tuner
        is created here, to Algorithm 2 fitness evaluation.
    max_workers:
        Worker-pool size forwarded to Algorithm 1 restarts and (when the
        tuner is created here) Algorithm 2 fitness evaluation.
    seed:
        Seeds Algorithm 1's random init (and the tuner if created here).
    """

    def __init__(
        self,
        rank: int = PAPER_RANK,
        lam: float = PAPER_LAMBDA,
        iterations: int = PAPER_ITERATIONS,
        auto_tune: bool = False,
        tuner: Optional[GeneticTuner] = None,
        aggregation: Optional[AggregationConfig] = None,
        center: bool = True,
        dtype: DTypeLike = None,
        max_workers: Optional[int] = None,
        seed: SeedLike = None,
    ) -> None:
        self.rank = rank
        self.lam = lam
        self.iterations = iterations
        self.auto_tune = auto_tune or tuner is not None
        self._tuner = tuner
        self.aggregation = aggregation or AggregationConfig()
        self.center = center
        self.dtype = dtype
        self.max_workers = max_workers
        self._seed = seed
        self.last_tuning: Optional[TuningResult] = None

    # ------------------------------------------------------------------
    def aggregate(
        self,
        reports: ReportBatch,
        grid: TimeGrid,
        segment_ids: Sequence[int],
    ) -> TrafficConditionMatrix:
        """Turn probe reports into the measurement TCM."""
        return aggregate_reports(reports, grid, segment_ids, self.aggregation)

    @shapes(ReportBatch, TimeGrid)
    def estimate_from_reports(
        self,
        reports: ReportBatch,
        grid: TimeGrid,
        segment_ids: Sequence[int],
    ) -> EstimationOutput:
        """Full pipeline: aggregate reports, then complete the matrix."""
        with obs_trace.span(
            "estimate.from_reports", reports=int(reports.times_s.size)
        ):
            measurements = self.aggregate(reports, grid, segment_ids)
            return self.estimate(measurements)

    @shapes(TrafficConditionMatrix)
    def estimate(self, measurements: TrafficConditionMatrix) -> EstimationOutput:
        """Complete a measurement TCM into a full traffic estimate."""
        rank, lam = self.rank, self.lam
        tuning: Optional[TuningResult] = None
        if self.auto_tune:
            tuner = self._tuner or GeneticTuner(
                dtype=self.dtype,
                max_workers=self.max_workers,
                seed=self._seed,
            )
            with obs_trace.span("estimate.tune"):
                tuning = tuner.tune(measurements)
            rank, lam = tuning.rank, tuning.lam
            self.last_tuning = tuning

        completer = CompressiveSensingCompleter(
            rank=rank,
            lam=lam,
            iterations=self.iterations,
            dtype=self.dtype,
            clip_min=0.0,
            clip_max=self.aggregation.max_speed_kmh,
            center=self.center,
            max_workers=self.max_workers,
            seed=self._seed,
        )
        with obs_trace.span("estimate.complete", rank=rank, lam=float(lam)):
            result = completer.complete(measurements)
        estimate_tcm = TrafficConditionMatrix(
            result.estimate,
            grid=measurements.grid,
            segment_ids=measurements.segment_ids,
        )
        return EstimationOutput(
            estimate=estimate_tcm,
            measurements=measurements,
            completion=result,
            tuning=tuning,
        )
