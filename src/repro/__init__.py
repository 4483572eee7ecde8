"""repro: compressive-sensing urban traffic estimation with probe vehicles.

A full reproduction of "Compressive Sensing Approach to Urban Traffic
Sensing" (ICDCS 2011) and its journal extension (IEEE TMC 2013): the
traffic-condition-matrix completion algorithm, its genetic parameter
tuner, the three competing baselines, and every substrate the evaluation
needs — road networks, ground-truth traffic dynamics, and a probe-taxi
fleet simulator replacing the proprietary Shanghai/Shenzhen datasets.

Quickstart::

    from repro import quickstart_estimate
    result = quickstart_estimate()          # tiny end-to-end run
    print(result.estimate)                  # completed TCM

or explicitly::

    from repro.datasets import shanghai_dataset
    from repro.metrics import estimate_error
    from repro.scale import ShardedEstimator

    data = shanghai_dataset(days=1.0, num_vehicles=500)
    estimator = ShardedEstimator(data.network, partitioner="single")
    output = estimator.estimate(data.measurements)
    err = estimate_error(
        data.truth_tcm.values,
        output.estimate.values,
        data.measurements.mask,
    )
"""

from repro.core import (
    CompressiveSensingCompleter,
    GeneticTuner,
    TimeGrid,
    TrafficConditionMatrix,
)
from repro.metrics import estimate_error, nmae

__version__ = "1.0.0"

__all__ = [
    "CompressiveSensingCompleter",
    "GeneticTuner",
    "TimeGrid",
    "TrafficConditionMatrix",
    "estimate_error",
    "nmae",
    "quickstart_estimate",
    "__version__",
]


def quickstart_estimate(seed: int = 0):
    """Tiny end-to-end pipeline run (minutes of simulated traffic).

    Builds a small grid city, simulates a probe fleet for six hours,
    aggregates reports, and completes the measurement matrix in one
    shard (the monolithic solve).  Returns the
    :class:`repro.scale.ShardedEstimationOutput`.
    """
    from repro.datasets.synthetic import SyntheticDatasetConfig, build_probe_dataset
    from repro.roadnet.generators import grid_city
    from repro.scale import ShardedEstimator

    network = grid_city(5, 5, seed=seed)
    config = SyntheticDatasetConfig(days=0.25, num_vehicles=60, slot_s=900.0)
    data = build_probe_dataset(network, config, seed=seed)
    estimator = ShardedEstimator(network, partitioner="single", seed=seed)
    return estimator.estimate(data.measurements)
