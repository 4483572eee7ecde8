"""Sharded metropolitan-scale estimation (ROADMAP item 1).

The paper validates Algorithm 1 on downtown-sized TCMs (221/198
segments) but targets the full 5,812-segment inner-Shanghai network.
This package makes that scale practical by decomposing the network into
spatial tiles, completing each tile independently (float64 or float32,
optionally in parallel), and stitching the per-shard
estimates back into one full-network TCM:

* :mod:`repro.scale.partition` — spatial partitioners (``grid``,
  ``single``, ``contiguous``) producing :class:`Shard` column sets with
  a configurable halo of overlap segments;
* :mod:`repro.scale.sharded` — :class:`ShardedCompleter` (multilevel
  warm-started per-shard Algorithm 1 + observation-count-weighted
  stitching) and the :class:`ShardedEstimator` facade;
* :mod:`repro.scale.streaming` — :class:`ShardedStreamingEstimator`,
  per-shard sliding windows where only tiles that received new reports
  re-complete on a slot close.
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
    ShardedCompleter,
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
    "ShardedCompleter",
    "ShardedCompletionResult",
    "ShardedEstimationOutput",
    "ShardedEstimator",
    "ShardedStreamingEstimator",
    "SinglePartitioner",
    "contiguous_shards",
    "make_partitioner",
    "validate_shards",
]
