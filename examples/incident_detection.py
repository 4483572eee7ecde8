#!/usr/bin/env python
"""Incident detection from completed traffic matrices.

Section 3.1 of the paper observes that type-2 (spike) eigenflows track
localized events in the data.  This example closes the loop: inject
known incidents into the ground truth, estimate the TCM from sparse
probe observations, and detect the incidents on the *completed* matrix
with both detectors (low-rank residual and spike eigenflows), scoring
recall against the injected truth.

Run:  python examples/incident_detection.py
"""

import numpy as np

from repro.core import (
    EigenflowAnomalyDetector,
    ResidualAnomalyDetector,
    TimeGrid,
    TrafficConditionMatrix,
)
from repro.core.anomaly import match_events
from repro.datasets import random_integrity_mask
from repro.roadnet import grid_city
from repro.scale import ShardedEstimator
from repro.traffic import CongestionIncident, GroundTruthTraffic, TrafficDynamicsConfig


def main() -> None:
    network = grid_city(6, 6, block_m=250.0, seed=0)
    grid = TimeGrid.over_days(2.0, 1800.0)

    # Inject three strong incidents at known (slot, segment) windows.
    incidents = [
        CongestionIncident(18 * 1800.0, 3 * 1800.0, 10, {10: 0.85, 11: 0.5}),
        CongestionIncident(55 * 1800.0, 4 * 1800.0, 40, {40: 0.9, 41: 0.55}),
        CongestionIncident(80 * 1800.0, 3 * 1800.0, 70, {70: 0.8}),
    ]
    truth_windows = [(18, 20), (55, 58), (80, 82)]
    config = TrafficDynamicsConfig(
        noise_sigma=0.08, temporal_roughness=0.15, incident_rate_per_day=0.0
    )
    truth = GroundTruthTraffic.synthesize(
        network, grid, config=config, seed=0, incidents=incidents
    )
    print(f"injected {len(incidents)} incidents into "
          f"{truth.tcm.shape} ground truth")

    # Observe 30% of cells, complete, then detect on the estimate.
    mask = random_integrity_mask(truth.tcm.shape, 0.3, seed=1)
    measured = truth.tcm.with_mask(mask)
    estimator = ShardedEstimator(
        network, partitioner="single", lam=10.0, rank=3, seed=0
    )
    output = estimator.estimate(measured)
    # Fuse: keep observations where we have them.
    fused = TrafficConditionMatrix(
        np.where(mask, truth.tcm.values, output.estimate.values),
        grid=grid,
        segment_ids=network.segment_ids,
    )
    print(f"estimated from {measured.integrity:.0%} integrity\n")

    matrices = [("ground truth", truth.tcm), ("30%-integrity estimate", fused)]
    detectors = [
        ("residual (rank-2 baseline)", ResidualAnomalyDetector(rank=2, threshold_sigmas=4.5)),
        ("spike eigenflows", EigenflowAnomalyDetector(threshold_sigmas=4.5)),
    ]
    for matrix_name, matrix in matrices:
        print(f"--- detection on the {matrix_name} ---")
        for name, detector in detectors:
            events = detector.detect(matrix)
            recall, precision = match_events(
                events, truth_windows, slot_tolerance=1
            )
            print(f"  {name:28s} {len(events):3d} events; "
                  f"recall {recall:.0%}, precision {precision:.0%}")
            top = sorted(events, key=lambda e: -e.score)[:3]
            for e in top:
                print(f"      slot {e.slot:3d}  segments {e.segment_ids[:4]}  "
                      f"score {e.score:.1f}")
        print()

    print("completion errors add false alarms at low integrity — raising the")
    print("threshold or requiring multi-slot persistence trades recall for")
    print("precision, exactly as in production incident-detection systems.")


if __name__ == "__main__":
    main()
