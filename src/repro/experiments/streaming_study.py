"""Streaming-vs-batch study (the paper's online future-work item).

Quantifies what the sliding-window online extension gives up relative
to the offline algorithm, and what the warm start buys:

* **accuracy** — per-slot NMAE of the live estimates (published the
  moment each slot closes, using only past data) vs the offline
  completion of the full matrix (which sees the future too);
* **cost** — stream time with and without warm starting.  Every
  re-completion, warm or cold, stops once it converges
  (:data:`repro.core.streaming.STREAM_TOL`), so the warm-start speedup
  measures time to converge, not a fixed sweep budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.streaming import StreamingEstimator
from repro.core.tcm import TimeGrid
from repro.experiments.config import make_completer
from repro.experiments.reporting import format_table
from repro.metrics.errors import nmae
from repro.mobility.fleet import FleetConfig, FleetSimulator
from repro.probes.aggregation import aggregate_reports
from repro.roadnet.generators import grid_city
from repro.traffic.groundtruth import GroundTruthTraffic
from repro.utils.rng import spawn_rngs


@dataclass
class StreamingStudyConfig:
    """Configuration of the streaming extension study."""

    days: float = 1.0
    slot_s: float = 900.0
    num_vehicles: int = 150
    grid_rows: int = 6
    grid_cols: int = 6
    window_slots: int = 24
    warm_iterations: int = 8
    seed: int = 0


@dataclass
class StreamingStudyResult:
    """Accuracy and cost comparison.

    Attributes
    ----------
    streaming_nmae:
        Median per-slot NMAE of live estimates vs ground truth.
    batch_nmae:
        NMAE of the offline completion over the same cells.
    warm_seconds, cold_seconds:
        Wall-clock totals for the streaming pass with warm starts vs
        cold restarts each slot (both stop at convergence), each the
        fastest of :data:`TIMING_REPEATS` alternating passes.
    num_slots:
        Slots processed.
    """

    streaming_nmae: float
    batch_nmae: float
    warm_seconds: float
    cold_seconds: float
    num_slots: int
    config: StreamingStudyConfig

    @property
    def speedup(self) -> float:
        if self.warm_seconds == 0:
            return float("inf")
        return self.cold_seconds / self.warm_seconds

    def render(self) -> str:
        rows = [
            ["streaming (live, warm-started)", f"{self.streaming_nmae:.4f}",
             f"{self.warm_seconds:.2f}s"],
            ["streaming (live, cold restarts)", "same estimates",
             f"{self.cold_seconds:.2f}s"],
            ["offline batch (sees full window)", f"{self.batch_nmae:.4f}", "-"],
        ]
        return format_table(
            ["estimator", "median slot NMAE", "stream time"],
            rows,
            title=(
                f"Streaming extension study ({self.num_slots} slots, "
                f"warm-start speedup {self.speedup:.1f}x)"
            ),
        )


#: Passes per arm; the fastest is reported.  Converged warm and cold
#: passes differ by ~2x on small cities, close enough that one noisy
#: pass could invert them.
TIMING_REPEATS = 3


def _run_stream(
    reports, segment_ids, config: StreamingStudyConfig, warm: bool
) -> List:
    streamer = StreamingEstimator(
        segment_ids=segment_ids,
        slot_s=config.slot_s,
        window_slots=config.window_slots,
        warm_iterations=config.warm_iterations if warm else 60,
        cold_iterations=60,
        lam=10.0,
        seed=config.seed,
    )
    if not warm:
        # Disable warm starting; every solve then converges from a
        # random init, capped at the cold iteration budget.
        streamer._window.warm_start = False
    streamer.ingest_many(list(reports))
    streamer.flush()
    return streamer.estimates


def run_streaming_study(
    config: Optional[StreamingStudyConfig] = None,
) -> StreamingStudyResult:
    """Run the live-vs-batch comparison on one simulated day."""
    config = config or StreamingStudyConfig()
    net_rng, traffic_rng, fleet_rng = spawn_rngs(config.seed, 3)
    network = grid_city(config.grid_rows, config.grid_cols, seed=net_rng)
    grid = TimeGrid.over_days(config.days, config.slot_s)
    truth = GroundTruthTraffic.synthesize(network, grid, seed=traffic_rng)
    reports = FleetSimulator(
        truth, FleetConfig(num_vehicles=config.num_vehicles), seed=fleet_rng
    ).run()

    seconds = {True: np.inf, False: np.inf}
    warm_estimates: List = []
    for _ in range(TIMING_REPEATS):
        for warm in (True, False):
            started = time.perf_counter()
            estimates = _run_stream(reports, network.segment_ids, config, warm)
            seconds[warm] = min(seconds[warm], time.perf_counter() - started)
            if warm:
                warm_estimates = estimates
    warm_seconds, cold_seconds = seconds[True], seconds[False]

    x = truth.tcm.values
    slot_errors = [
        nmae(x[i][None], est.speeds_kmh[None])
        for i, est in enumerate(warm_estimates)
        if i < x.shape[0]
    ]
    streaming_nmae = float(np.median(slot_errors))

    measured = aggregate_reports(reports, grid, network.segment_ids)
    batch = make_completer(seed=config.seed).complete(
        measured.values, measured.mask
    )
    batch_nmae = nmae(x, batch.estimate)

    return StreamingStudyResult(
        streaming_nmae=streaming_nmae,
        batch_nmae=batch_nmae,
        warm_seconds=warm_seconds,
        cold_seconds=cold_seconds,
        num_slots=len(warm_estimates),
        config=config,
    )
