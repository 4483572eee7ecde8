#!/usr/bin/env python
"""Sharded completion of the full inner-Shanghai-sized network.

The paper's evaluation runs on downtown-sized TCMs (221/198 segments),
but the deployment target is the full 5,812-segment inner-Shanghai
network.  This example completes one week of 15-minute slots at 20 %
integrity over that network twice — monolithically with the paper's
full Algorithm 1 budget, and sharded (16 spatial tiles, 1-hop halo,
multilevel warm start) — then streams a million pre-matched probe
reports through the per-shard sliding-window estimator.

Run:  python examples/metropolitan_sharding.py          # ~1 min
      python examples/metropolitan_sharding.py --small  # downtown, seconds
"""

import sys
import time

import numpy as np

from repro.core.completion import PAPER_ITERATIONS, CompressiveSensingCompleter
from repro.core.tcm import TimeGrid, TrafficConditionMatrix
from repro.datasets import random_integrity_mask
from repro.metrics import nmae
from repro.probes import ReportBatch
from repro.roadnet import shanghai_downtown_like, shanghai_inner_like
from repro.scale import ShardedEstimator, ShardedStreamingEstimator

INTEGRITY = 0.2
RANK, LAM = 2, 10.0


def main() -> None:
    small = "--small" in sys.argv[1:]
    rng = np.random.default_rng(0)

    print("building the road network...")
    network = shanghai_downtown_like() if small else shanghai_inner_like()
    slots = 96 if small else 672
    num_shards = 4 if small else 16
    n = network.num_segments
    print(f"  {n} segments, {slots} slots of 15 min, "
          f"{INTEGRITY:.0%} integrity\n")

    # Low-rank-plus-noise truth on the km/h scale, masked to 20 %.
    base = rng.standard_normal((slots, 4)) @ rng.standard_normal((4, n))
    truth = 35.0 + 4.0 * base + 0.5 * rng.standard_normal((slots, n))
    mask = random_integrity_mask((slots, n), INTEGRITY, seed=rng)
    missing = ~mask
    tcm = TrafficConditionMatrix(
        np.where(mask, truth, 0.0),
        mask,
        grid=TimeGrid(0.0, 900.0, slots),
        segment_ids=network.segment_ids,
    )

    print(f"monolithic Algorithm 1 ({PAPER_ITERATIONS} sweeps)...")
    mono = CompressiveSensingCompleter(
        rank=RANK, lam=LAM, iterations=PAPER_ITERATIONS,
        center=True, clip_min=0.0, clip_max=150.0, seed=0,
    )
    start = time.perf_counter()
    mono_result = mono.complete(tcm.values, tcm.mask)
    mono_wall = time.perf_counter() - start
    mono_err = nmae(truth, mono_result.estimate, missing)
    print(f"  {mono_wall:.2f}s, NMAE on missing cells {mono_err:.4f}\n")

    print(f"sharded completion ({num_shards} tiles, halo 1, "
          f"5 seed + 8 warm sweeps)...")
    estimator = ShardedEstimator(
        network, shards=num_shards, halo=1, rank=RANK, lam=LAM,
        seed_iterations=5, warm_iterations=8, seed=0,
    )
    start = time.perf_counter()
    sharded_result = estimator.estimate(tcm).completion
    sharded_wall = time.perf_counter() - start
    sharded_err = nmae(truth, sharded_result.estimate, missing)
    print(f"  {sharded_wall:.2f}s ({sharded_result.stitch_s:.3f}s stitching), "
          f"NMAE on missing cells {sharded_err:.4f}")
    print(f"  {mono_wall / sharded_wall:.1f}x faster, "
          f"NMAE delta {abs(sharded_err - mono_err):.4f}")
    widest = max(sharded_result.shards, key=lambda s: s.num_core)
    print(f"  largest tile: {widest.num_core} core + {widest.num_halo} halo "
          f"segments, {widest.observed_cells} observed cells\n")

    # ------------------------------------------------------------------
    num_reports = 100_000 if small else 1_000_000
    print(f"streaming {num_reports:,} pre-matched reports through "
          f"per-shard sliding windows...")
    times = np.sort(rng.uniform(0.0, 86_400.0, num_reports))
    segs = np.asarray(network.segment_ids, dtype=np.int64)[
        rng.integers(0, n, num_reports)
    ]
    batch = ReportBatch.from_columns(
        rng.integers(0, num_reports // 50, num_reports),
        times,
        np.zeros(num_reports),
        np.zeros(num_reports),
        rng.uniform(5.0, 70.0, num_reports),
        segment_ids=segs,
        assume_sorted=True,
    )
    streamer = ShardedStreamingEstimator(
        network, shards=num_shards, halo=0,
        slot_s=900.0, window_slots=24,
        warm_iterations=4, cold_iterations=8, seed=0,
    )
    start = time.perf_counter()
    streamer.ingest_batch(batch)
    streamer.flush()
    wall = time.perf_counter() - start
    print(f"  {wall:.2f}s ({num_reports / wall:,.0f} reports/s), "
          f"{len(streamer.estimates)} slots published, "
          f"{streamer.recompletions} re-completions "
          f"({streamer.recompletions_skipped} skipped on quiet tiles)")


if __name__ == "__main__":
    main()
