"""The estimators: one batch and one streaming, from one shard to a metropolis.

The paper validates Algorithm 1 on downtown-sized TCMs (221/198
segments) but targets the full 5,812-segment inner-Shanghai network.
This package makes that scale practical by decomposing the network into
spatial tiles, completing each tile independently (float64 or float32,
optionally in parallel), and stitching the per-shard
estimates back into one full-network TCM.  A partition with one shard
runs the exact regime, so ``partitioner="single"`` is the monolithic
Algorithm 1 solve at paper scale:

* :mod:`repro.scale.partition` — partitioners (``grid`` over a road
  network; the geometry-free ``single`` and ``contiguous`` also over a
  TCM's segment ids) producing :class:`Shard` column sets with a
  configurable halo of overlap segments;
* :mod:`repro.scale.sharded` — :class:`ShardedEstimator`, the one
  batch estimator: exact or multilevel warm-started per-shard
  Algorithm 1, observation-count-weighted stitching, and one fixed
  policy (centred on the observed mean, clipped to
  ``[0, MAX_SPEED_KMH]``);
* :mod:`repro.scale.streaming` — :class:`ShardedStreamingEstimator`,
  the one streaming estimator: per-shard sliding windows where only
  tiles that received new reports re-complete on a slot close.
"""

from repro.scale.partition import (
    PARTITIONERS,
    ContiguousPartitioner,
    GridPartitioner,
    Shard,
    SinglePartitioner,
    contiguous_shards,
    make_partitioner,
    validate_shards,
)
from repro.scale.sharded import (
    ShardedCompletionResult,
    ShardedEstimationOutput,
    ShardedEstimator,
    ShardResult,
)
from repro.scale.streaming import ShardedStreamingEstimator

__all__ = [
    "PARTITIONERS",
    "ContiguousPartitioner",
    "GridPartitioner",
    "Shard",
    "ShardResult",
    "ShardedCompletionResult",
    "ShardedEstimationOutput",
    "ShardedEstimator",
    "ShardedStreamingEstimator",
    "SinglePartitioner",
    "contiguous_shards",
    "make_partitioner",
    "validate_shards",
]
