"""Spatial partitioning of a road network into completion shards.

A :class:`Shard` is a set of TCM columns: the *core* segments the shard
is responsible for estimating, plus an optional *halo* of neighbouring
segments included read-only so the shard's low-rank factors see the
traffic context just across the tile boundary.  Core sets always
partition the network exactly (every segment in exactly one core);
halos overlap freely.

Partitioners:

* :class:`GridPartitioner` — tiles the network bounding box into an
  aspect-ratio-matched grid and assigns each segment to the tile
  containing its midpoint; the halo is grown by ``halo`` hops of
  segment adjacency (shared intersections).  This is the metropolitan
  default.
* :class:`SinglePartitioner` — one shard holding everything, which
  the sharded estimator solves as one monolithic Algorithm 1 run.
* :class:`ContiguousPartitioner` — splits the sorted segment-id list
  into near-equal runs; geometry-free, for TCMs without a network.

The two geometry-free partitioners take either a road network or a
TCM's segment ids; the grid partitioner needs the network's geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple, Union

import numpy as np

from repro.roadnet.network import RoadNetwork

__all__ = [
    "PARTITIONERS",
    "ContiguousPartitioner",
    "GridPartitioner",
    "Shard",
    "SinglePartitioner",
    "contiguous_shards",
    "make_partitioner",
    "validate_shards",
]

#: What a partitioner partitions: a road network, or (for the
#: geometry-free partitioners) the segment ids of a TCM's columns.
Columns = Union[RoadNetwork, Sequence[int]]


def _segment_ids(columns: Columns) -> Sequence[int]:
    """The segment ids of a network, or the ids themselves."""
    if isinstance(columns, RoadNetwork):
        return columns.segment_ids
    return columns


@dataclass(frozen=True)
class Shard:
    """One spatial tile's column sets.

    Attributes
    ----------
    shard_id:
        Dense index in ``0..num_shards-1``; stitching iterates shards in
        this order so the reconciliation is independent of completion
        order.
    core_ids:
        Segments this shard owns (sorted, disjoint across shards).
    halo_ids:
        Overlap segments solved alongside the core for boundary context
        (sorted, disjoint from ``core_ids``; may overlap other shards).
    """

    shard_id: int
    core_ids: Tuple[int, ...]
    halo_ids: Tuple[int, ...] = ()
    _all_ids: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.core_ids:
            raise ValueError(f"shard {self.shard_id} has an empty core")
        core = tuple(sorted(int(s) for s in self.core_ids))
        halo = tuple(sorted(int(s) for s in self.halo_ids))
        if set(core) & set(halo):
            raise ValueError(
                f"shard {self.shard_id} halo overlaps its own core"
            )
        object.__setattr__(self, "core_ids", core)
        object.__setattr__(self, "halo_ids", halo)
        object.__setattr__(self, "_all_ids", tuple(sorted(core + halo)))

    @property
    def all_ids(self) -> Tuple[int, ...]:
        """Core plus halo, sorted (the shard's sub-TCM column order)."""
        return self._all_ids

    @property
    def num_columns(self) -> int:
        return len(self._all_ids)


def validate_shards(shards: Sequence[Shard], segment_ids: Sequence[int]) -> None:
    """Check that shard cores partition ``segment_ids`` exactly."""
    if not shards:
        raise ValueError("need at least one shard")
    ids = [int(s) for s in shards[0].core_ids]
    seen: Set[int] = set(ids)
    for shard in shards[1:]:
        for sid in shard.core_ids:
            if sid in seen:
                raise ValueError(f"segment {sid} is in more than one core")
            seen.add(sid)
    expected = set(int(s) for s in segment_ids)
    if seen != expected:
        missing = sorted(expected - seen)[:5]
        extra = sorted(seen - expected)[:5]
        raise ValueError(
            "shard cores do not partition the segment set "
            f"(missing {missing}{'...' if len(expected - seen) > 5 else ''}, "
            f"unknown {extra}{'...' if len(seen - expected) > 5 else ''})"
        )
    unknown_halo = sorted(
        set(sid for shard in shards for sid in shard.halo_ids) - expected
    )
    if unknown_halo:
        raise ValueError(f"halo references unknown segments {unknown_halo[:5]}")


def contiguous_shards(
    segment_ids: Sequence[int], num_shards: int
) -> List[Shard]:
    """Split sorted segment ids into ``num_shards`` near-equal runs.

    Geometry-free: useful for sharding a bare TCM whose columns have no
    attached road network.  No halo is produced.
    """
    ids = sorted(int(s) for s in segment_ids)
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    num_shards = min(num_shards, len(ids))
    bounds = np.linspace(0, len(ids), num_shards + 1).astype(int)
    return [
        Shard(shard_id=i, core_ids=tuple(ids[bounds[i] : bounds[i + 1]]))
        for i in range(num_shards)
    ]


class SinglePartitioner:
    """The trivial partition: one shard containing every segment."""

    name = "single"

    def __init__(self, num_shards: int = 1, halo: int = 0) -> None:
        if num_shards != 1:
            raise ValueError("SinglePartitioner always produces one shard")
        self.num_shards = 1
        self.halo = 0

    def partition(self, columns: Columns) -> List[Shard]:
        return [Shard(shard_id=0, core_ids=tuple(_segment_ids(columns)))]


class ContiguousPartitioner:
    """Geometry-free partition into contiguous segment-id runs."""

    name = "contiguous"

    def __init__(self, num_shards: int, halo: int = 0) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if halo != 0:
            raise ValueError(
                "ContiguousPartitioner is geometry-free and cannot grow a "
                "halo; use GridPartitioner for halo > 0"
            )
        self.num_shards = num_shards
        self.halo = 0

    def partition(self, columns: Columns) -> List[Shard]:
        return contiguous_shards(_segment_ids(columns), self.num_shards)


class GridPartitioner:
    """Tile the network bounding box into an aspect-matched grid.

    Parameters
    ----------
    num_shards:
        Target shard count.  The tile grid is chosen so
        ``tiles_x * tiles_y >= num_shards`` with tile aspect close to
        square; empty tiles are dropped, so the realized count can be
        lower (it is capped by the number of occupied tiles).
    halo:
        Overlap depth in hops of segment adjacency: ``halo=1`` adds every
        segment sharing an intersection with a core segment, ``halo=2``
        their neighbours too, and so on.  ``halo=0`` produces disjoint
        shards (the exact-stitch regime).
    """

    name = "grid"

    def __init__(self, num_shards: int, halo: int = 1) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if halo < 0:
            raise ValueError(f"halo must be >= 0, got {halo}")
        self.num_shards = num_shards
        self.halo = halo

    def partition(self, network: Columns) -> List[Shard]:
        if not isinstance(network, RoadNetwork):
            raise ValueError(
                "the grid partitioner tiles a road network's geometry and "
                "cannot partition bare segment ids; use 'single' or "
                "'contiguous' for a TCM without a network"
            )
        segments = network.segments()
        seg_ids = np.array([s.segment_id for s in segments], dtype=np.int64)
        mid_x = np.array(
            [(s.start_point.x + s.end_point.x) * 0.5 for s in segments]
        )
        mid_y = np.array(
            [(s.start_point.y + s.end_point.y) * 0.5 for s in segments]
        )

        min_x, min_y, max_x, max_y = network.bounding_box()
        width = max(max_x - min_x, 1e-9)
        height = max(max_y - min_y, 1e-9)
        tiles_x, tiles_y = _tile_counts(self.num_shards, width / height)

        cell_x = np.clip(
            ((mid_x - min_x) / width * tiles_x).astype(np.int64), 0, tiles_x - 1
        )
        cell_y = np.clip(
            ((mid_y - min_y) / height * tiles_y).astype(np.int64), 0, tiles_y - 1
        )
        tile = cell_y * tiles_x + cell_x

        cores: List[Tuple[int, ...]] = []
        for t in range(tiles_x * tiles_y):
            members = seg_ids[tile == t]
            if members.size:
                cores.append(tuple(int(s) for s in members))

        adjacency = _node_adjacency(network) if self.halo > 0 else {}
        shards = []
        for i, core in enumerate(cores):
            halo_ids: Tuple[int, ...] = ()
            if self.halo > 0:
                halo_ids = _grow_halo(network, adjacency, core, self.halo)
            shards.append(
                Shard(shard_id=i, core_ids=core, halo_ids=halo_ids)
            )
        return shards


def _tile_counts(num_shards: int, aspect: float) -> Tuple[int, int]:
    """Pick a tile grid with ``tiles_x * tiles_y >= num_shards``.

    The x/y split matches the bounding-box aspect ratio so tiles stay
    roughly square (balanced shard sizes on uniform networks).
    """
    tiles_x = max(1, int(round(np.sqrt(num_shards * aspect))))
    tiles_y = max(1, int(np.ceil(num_shards / tiles_x)))
    while (tiles_x - 1) * tiles_y >= num_shards:
        tiles_x -= 1
    return tiles_x, tiles_y


def _node_adjacency(network: RoadNetwork) -> Dict[int, List[int]]:
    """intersection id -> segment ids touching it (built once)."""
    adjacency: Dict[int, List[int]] = {}
    for seg in network.segments():
        adjacency.setdefault(seg.start, []).append(seg.segment_id)
        adjacency.setdefault(seg.end, []).append(seg.segment_id)
    return adjacency


def _grow_halo(
    network: RoadNetwork,
    adjacency: Dict[int, List[int]],
    core: Sequence[int],
    hops: int,
) -> Tuple[int, ...]:
    """Segments within ``hops`` adjacency steps of the core (core excluded)."""
    core_set = set(core)
    reached = set(core)
    frontier = list(core)
    for _ in range(hops):
        next_frontier: List[int] = []
        for sid in frontier:
            seg = network.segment(sid)
            for node in (seg.start, seg.end):
                for other in adjacency[node]:
                    if other not in reached:
                        reached.add(other)
                        next_frontier.append(other)
        if not next_frontier:
            break
        frontier = next_frontier
    return tuple(sorted(reached - core_set))


PARTITIONERS = {
    "grid": GridPartitioner,
    "single": SinglePartitioner,
    "contiguous": ContiguousPartitioner,
}


def make_partitioner(name: str, num_shards: int, halo: int = 1):
    """Build a registered partitioner by name (CLI entry point).

    ``single`` and ``contiguous`` are geometry-free and never grow a
    halo; the ``halo`` argument only applies to ``grid``.
    """
    if name not in PARTITIONERS:
        raise KeyError(
            f"unknown partitioner {name!r} (known: {sorted(PARTITIONERS)})"
        )
    if name == "single":
        return SinglePartitioner()
    if name == "contiguous":
        return ContiguousPartitioner(num_shards)
    return GridPartitioner(num_shards, halo=halo)
