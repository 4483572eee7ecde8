#!/usr/bin/env python
"""Trip planning on estimated traffic — the paper's headline use case.

Builds a city, estimates its traffic from sparse probe data, then uses
the *estimated* traffic condition matrix to plan time-dependent fastest
routes: the planner traverses each link at the speed of the slot the
vehicle actually reaches it in, so it routes around the evening peak
and can recommend a better departure time.

Run:  python examples/trip_planning.py
"""

import numpy as np

from repro.apps import CongestionMonitor, TripPlannerService
from repro.datasets.synthetic import SyntheticDatasetConfig, build_probe_dataset
from repro.roadnet import grid_city
from repro.scale import ShardedEstimator


def fmt_hm(seconds: float) -> str:
    return f"{int(seconds // 3600):02d}:{int(seconds % 3600 // 60):02d}"


def main() -> None:
    print("building an 8x8 city and estimating a day of traffic...")
    network = grid_city(8, 8, block_m=300.0, seed=0)
    config = SyntheticDatasetConfig(days=1.0, num_vehicles=200, slot_s=900.0)
    data = build_probe_dataset(network, config, seed=0)
    estimator = ShardedEstimator(network, partitioner="single", lam=10.0, seed=0)
    output = estimator.estimate(data.measurements)
    print(f"  measurement integrity {data.measurements.integrity:.1%} "
          f"-> complete estimate {output.estimate.shape}")

    planner = TripPlannerService(network, output.estimate)
    monitor = CongestionMonitor(network, output.estimate)
    peak = monitor.peak_slot()
    peak_time = output.estimate.grid.slot_start(peak)
    print(f"  estimated city-wide congestion peaks at {fmt_hm(peak_time)}")

    # A cross-town trip: bottom-left to top-right intersection.
    origin, destination = 0, network.num_intersections - 1
    print(f"\ncross-town trip {origin} -> {destination}:")
    departures = [6 * 3600.0, peak_time, 22 * 3600.0]
    plans = planner.compare_departures(origin, destination, departures)
    for plan in plans:
        print(f"  depart {fmt_hm(plan.depart_s)}  "
              f"travel {plan.travel_time_s / 60:5.1f} min  "
              f"({plan.num_links} links)")

    slow = max(plans, key=lambda p: p.travel_time_s)
    fast = min(plans, key=lambda p: p.travel_time_s)
    saved = (slow.travel_time_s - fast.travel_time_s) / 60
    print(f"\ndeparting at {fmt_hm(fast.depart_s)} instead of "
          f"{fmt_hm(slow.depart_s)} saves {saved:.1f} minutes — ")
    print("planned entirely on traffic estimated from sparse probe data.")


if __name__ == "__main__":
    main()
