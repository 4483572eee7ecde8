"""Tests for repro.scale.partition (spatial shard decomposition)."""

import numpy as np
import pytest

from repro.roadnet.generators import grid_city
from repro.scale import (
    PARTITIONERS,
    ContiguousPartitioner,
    GridPartitioner,
    Shard,
    SinglePartitioner,
    contiguous_shards,
    make_partitioner,
    validate_shards,
)


@pytest.fixture(scope="module")
def network():
    return grid_city(5, 5, seed=0)


class TestShard:
    def test_sorts_ids(self):
        shard = Shard(shard_id=0, core_ids=(3, 1, 2), halo_ids=(9, 7))
        assert shard.core_ids == (1, 2, 3)
        assert shard.halo_ids == (7, 9)
        assert shard.all_ids == (1, 2, 3, 7, 9)
        assert shard.num_columns == 5

    def test_empty_core_rejected(self):
        with pytest.raises(ValueError, match="empty core"):
            Shard(shard_id=0, core_ids=())

    def test_halo_core_overlap_rejected(self):
        with pytest.raises(ValueError, match="halo overlaps"):
            Shard(shard_id=0, core_ids=(1, 2), halo_ids=(2, 3))


class TestValidateShards:
    def test_exact_partition_passes(self):
        shards = [
            Shard(0, core_ids=(0, 1), halo_ids=(2,)),
            Shard(1, core_ids=(2, 3)),
        ]
        validate_shards(shards, [0, 1, 2, 3])

    def test_duplicate_core_rejected(self):
        shards = [Shard(0, core_ids=(0, 1)), Shard(1, core_ids=(1, 2))]
        with pytest.raises(ValueError, match="more than one core"):
            validate_shards(shards, [0, 1, 2])

    def test_missing_segment_rejected(self):
        with pytest.raises(ValueError, match="do not partition"):
            validate_shards([Shard(0, core_ids=(0, 1))], [0, 1, 2])

    def test_unknown_halo_rejected(self):
        shards = [Shard(0, core_ids=(0, 1), halo_ids=(9,))]
        with pytest.raises(ValueError, match="unknown segments"):
            validate_shards(shards, [0, 1])

    def test_no_shards_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            validate_shards([], [0])


class TestContiguousShards:
    def test_covers_all_ids_without_halo(self):
        ids = list(range(17))
        shards = contiguous_shards(ids, 4)
        validate_shards(shards, ids)
        assert all(not s.halo_ids for s in shards)
        sizes = [len(s.core_ids) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_clamps_to_segment_count(self):
        shards = contiguous_shards([5, 6], 8)
        assert len(shards) == 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="num_shards"):
            contiguous_shards([0, 1], 0)


class TestSinglePartitioner:
    def test_one_shard_everything(self, network):
        shards = SinglePartitioner().partition(network)
        assert len(shards) == 1
        assert shards[0].core_ids == tuple(sorted(network.segment_ids))
        assert shards[0].halo_ids == ()
        validate_shards(shards, network.segment_ids)

    def test_from_segment_ids(self):
        ids = [7, 3, 11, 5]
        shards = SinglePartitioner().partition(ids)
        assert len(shards) == 1
        assert shards[0].core_ids == (3, 5, 7, 11)
        validate_shards(shards, ids)


class TestContiguousPartitioner:
    def test_partitions_network(self, network):
        shards = ContiguousPartitioner(3).partition(network)
        validate_shards(shards, network.segment_ids)
        assert len(shards) == 3

    def test_from_segment_ids(self, network):
        ids = list(np.random.default_rng(0).permutation(network.segment_ids))
        from_ids = ContiguousPartitioner(3).partition(ids)
        validate_shards(from_ids, ids)
        assert from_ids == ContiguousPartitioner(3).partition(network)

    def test_rejects_halo(self):
        with pytest.raises(ValueError, match="halo"):
            ContiguousPartitioner(3, halo=1)


class TestGridPartitioner:
    def test_needs_a_network(self, network):
        with pytest.raises(ValueError, match="'single' or 'contiguous'"):
            GridPartitioner(4).partition(network.segment_ids)

    def test_cores_partition_exactly(self, network):
        shards = GridPartitioner(4, halo=1).partition(network)
        validate_shards(shards, network.segment_ids)
        assert 1 <= len(shards) <= 4
        assert [s.shard_id for s in shards] == list(range(len(shards)))

    def test_halo_zero_means_disjoint(self, network):
        shards = GridPartitioner(4, halo=0).partition(network)
        assert all(not s.halo_ids for s in shards)

    def test_halo_segments_touch_the_core(self, network):
        """Every 1-hop halo segment shares an intersection with the core."""
        shards = GridPartitioner(4, halo=1).partition(network)
        assert any(s.halo_ids for s in shards)  # grid tiles do abut
        for shard in shards:
            core_nodes = set()
            for sid in shard.core_ids:
                seg = network.segment(sid)
                core_nodes.update((seg.start, seg.end))
            for sid in shard.halo_ids:
                seg = network.segment(sid)
                assert {seg.start, seg.end} & core_nodes

    def test_deeper_halo_is_superset(self, network):
        one = GridPartitioner(4, halo=1).partition(network)
        two = GridPartitioner(4, halo=2).partition(network)
        for a, b in zip(one, two):
            assert a.core_ids == b.core_ids
            assert set(a.halo_ids) <= set(b.halo_ids)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            GridPartitioner(0)
        with pytest.raises(ValueError):
            GridPartitioner(4, halo=-1)


class TestMakePartitioner:
    def test_registry_names(self):
        assert set(PARTITIONERS) == {"grid", "single", "contiguous"}
        assert isinstance(make_partitioner("grid", 4), GridPartitioner)
        assert isinstance(make_partitioner("single", 1), SinglePartitioner)
        assert isinstance(
            make_partitioner("contiguous", 3), ContiguousPartitioner
        )

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown partitioner"):
            make_partitioner("voronoi", 4)
