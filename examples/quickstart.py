#!/usr/bin/env python
"""Quickstart: estimate urban traffic from simulated probe vehicles.

Runs the full pipeline on a small grid city in well under a minute:

1. build a synthetic road network;
2. synthesize ground-truth traffic for six hours;
3. simulate a probe-taxi fleet reporting GPS speed updates;
4. aggregate the reports into a (sparse) traffic condition matrix;
5. complete the matrix with the compressive-sensing algorithm;
6. score the estimate against ground truth (NMAE over missing cells).

Run:  python examples/quickstart.py
"""

from repro.datasets.synthetic import SyntheticDatasetConfig, build_probe_dataset
from repro.metrics import estimate_error
from repro.roadnet import grid_city
from repro.scale import ShardedEstimator


def main() -> None:
    print("building a 6x6 grid city...")
    network = grid_city(6, 6, block_m=250.0, seed=0)
    print(f"  {network.num_intersections} intersections, "
          f"{network.num_segments} directed road segments")

    print("simulating 24 h of traffic and an 80-taxi probe fleet...")
    config = SyntheticDatasetConfig(days=1.0, num_vehicles=80, slot_s=1800.0)
    data = build_probe_dataset(network, config, seed=0)
    print(f"  {len(data.reports)} probe reports received")
    print(f"  measurement matrix {data.measurements.shape}, "
          f"integrity {data.measurements.integrity:.1%}")

    print("completing the matrix (Algorithm 1, r=2)...")
    # lam=10 is what Algorithm 2 selects on this synthetic data; see
    # examples/parameter_tuning.py for the tuning run itself.  One shard
    # ("single") completes the whole matrix in one Algorithm 1 run.
    estimator = ShardedEstimator(network, partitioner="single", lam=10.0, seed=0)
    output = estimator.estimate(data.measurements)

    err = estimate_error(
        data.truth_tcm.values,
        output.estimate.values,
        data.measurements.mask,
    )
    print(f"  estimate error over missing cells (NMAE): {err:.1%}")

    sid = network.segment_ids[0]
    print(f"\nsegment {sid}: first 8 slots (km/h)")
    print("  truth:    ", [f"{v:5.1f}" for v in data.truth_tcm.series(sid)[:8]])
    print("  estimate: ", [f"{v:5.1f}" for v in output.estimate.series(sid)[:8]])


if __name__ == "__main__":
    main()
