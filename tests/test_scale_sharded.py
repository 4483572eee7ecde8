"""Tests for repro.scale.sharded (per-shard completion + stitching)."""

import numpy as np
import pytest

from repro.core.completion import CompressiveSensingCompleter
from repro.core.tcm import TimeGrid, TrafficConditionMatrix
from repro.datasets.masks import random_integrity_mask
from repro.experiments.perf_bench import _make_truth
from repro.metrics.errors import nmae
from repro.roadnet.generators import grid_city, shanghai_downtown_like
from repro.scale import (
    GridPartitioner,
    ShardedCompleter,
    ShardedEstimator,
    SinglePartitioner,
    contiguous_shards,
)
from repro.utils.rng import ensure_rng

RANK, LAM, ITERS = 2, 10.0, 12


@pytest.fixture(scope="module")
def network():
    return grid_city(5, 5, seed=0)


@pytest.fixture(scope="module")
def measured(network):
    rng = np.random.default_rng(7)
    n = network.num_segments
    slots = 20
    truth = rng.uniform(0.6, 1.4, (slots, RANK)) @ rng.uniform(15.0, 45.0, (RANK, n))
    mask = rng.random((slots, n)) < 0.4
    return TrafficConditionMatrix(
        np.where(mask, truth, 0.0),
        mask,
        grid=TimeGrid(0.0, 600.0, slots),
        segment_ids=network.segment_ids,
    )


def _exact_completer(**kw):
    kw.setdefault("seed", 0)
    return ShardedCompleter(
        rank=RANK, lam=LAM, iterations=ITERS, seed_iterations=0,
        center=True, clip_min=0.0, clip_max=150.0, **kw,
    )


def _multilevel_completer(**kw):
    kw.setdefault("seed", 0)
    return ShardedCompleter(
        rank=RANK, lam=LAM, seed_iterations=3, warm_iterations=4,
        center=True, clip_min=0.0, clip_max=150.0, **kw,
    )


def _mono_estimate(measured):
    mono = CompressiveSensingCompleter(
        rank=RANK, lam=LAM, iterations=ITERS,
        center=True, clip_min=0.0, clip_max=150.0, seed=0,
    )
    return mono.complete(measured.values, measured.mask).estimate


class TestExactRegime:
    def test_single_shard_equals_monolithic(self, network, measured):
        shards = SinglePartitioner().partition(network)
        result = _exact_completer().complete(measured, shards)
        assert result.mode == "exact"
        assert np.array_equal(result.estimate, _mono_estimate(measured))

    def test_halo_zero_equals_monolithic_per_shard(self, network, measured):
        shards = GridPartitioner(4, halo=0).partition(network)
        result = _exact_completer().complete(measured, shards)
        mono = CompressiveSensingCompleter(
            rank=RANK, lam=LAM, iterations=ITERS,
            center=True, clip_min=0.0, clip_max=150.0, seed=0,
        )
        col_of = {sid: j for j, sid in enumerate(measured.segment_ids)}
        for shard in shards:
            cols = np.array([col_of[s] for s in shard.all_ids])
            sub = mono.complete(
                np.ascontiguousarray(measured.values[:, cols]),
                np.ascontiguousarray(measured.mask[:, cols]),
            )
            assert np.array_equal(result.estimate[:, cols], sub.estimate)


class TestMultilevelRegime:
    def test_serial_equals_pool(self, network, measured):
        shards = GridPartitioner(4, halo=1).partition(network)
        serial = _multilevel_completer().complete(measured, shards)
        pooled = _multilevel_completer(max_workers=3).complete(measured, shards)
        assert serial.mode == "multilevel"
        assert np.array_equal(serial.estimate, pooled.estimate)

    def test_shard_input_order_irrelevant(self, network, measured):
        shards = GridPartitioner(4, halo=1).partition(network)
        forward = _multilevel_completer().complete(measured, shards)
        backward = _multilevel_completer().complete(
            measured, list(reversed(shards))
        )
        assert np.array_equal(forward.estimate, backward.estimate)

    def test_estimate_is_complete_and_clipped(self, network, measured):
        shards = GridPartitioner(4, halo=1).partition(network)
        result = _multilevel_completer().complete(measured, shards)
        assert result.estimate.shape == measured.values.shape
        assert np.isfinite(result.estimate).all()
        assert result.estimate.min() >= 0.0
        assert result.estimate.max() <= 150.0
        assert result.seed_objective is not None
        assert result.stitch_s >= 0.0

    def test_shard_summaries(self, network, measured):
        shards = GridPartitioner(4, halo=1).partition(network)
        result = _multilevel_completer().complete(measured, shards)
        assert [s.shard_id for s in result.shards] == list(
            range(len(shards))
        )
        assert sum(s.num_core for s in result.shards) == network.num_segments
        assert all(s.observed_cells > 0 for s in result.shards)

    def test_multilevel_tracks_monolithic(self, network, measured):
        """Stitched multilevel estimate stays close to the monolithic one
        on the unobserved cells (the quantity the paper's NMAE scores)."""
        shards = GridPartitioner(4, halo=1).partition(network)
        result = _multilevel_completer().complete(measured, shards)
        mono = _mono_estimate(measured)
        missing = ~measured.mask
        nmae_delta = np.abs(
            result.estimate[missing] - mono[missing]
        ).sum() / np.abs(mono[missing]).sum()
        assert nmae_delta < 0.25

    def test_downtown_accuracy_matches_monolithic(self):
        """Sharded and monolithic NMAE on the unobserved cells of a
        downtown-scale day (96 x 221 at 20% integrity, 4 tiles with a
        1-hop halo) differ by at most 1e-2."""
        network = shanghai_downtown_like()
        rng = ensure_rng(0)
        truth = _make_truth(96, network.num_segments, rng)
        mask = random_integrity_mask(truth.shape, 0.2, seed=rng)
        measured = np.where(mask, truth, 0.0)
        tcm = TrafficConditionMatrix(
            measured,
            mask,
            grid=TimeGrid(0.0, 900.0, 96),
            segment_ids=network.segment_ids,
        )
        common = dict(
            rank=2,
            lam=10.0,
            iterations=20,
            center=True,
            clip_min=0.0,
            clip_max=150.0,
            seed=0,
        )
        mono = CompressiveSensingCompleter(**common).complete(measured, mask)
        sharded = ShardedCompleter(
            seed_iterations=5, warm_iterations=8, **common
        ).complete(tcm, GridPartitioner(4, halo=1).partition(network))
        assert sharded.mode == "multilevel"
        mono_nmae = nmae(truth, mono.estimate, ~mask)
        sharded_nmae = nmae(truth, sharded.estimate, ~mask)
        assert abs(sharded_nmae - mono_nmae) <= 1e-2

    def test_geometry_free_contiguous_shards(self, measured):
        shards = contiguous_shards(measured.segment_ids, 3)
        result = _multilevel_completer().complete(measured, shards)
        assert result.estimate.shape == measured.values.shape


class TestValidation:
    def test_bad_seed_iterations(self):
        with pytest.raises(ValueError, match="seed_iterations"):
            ShardedCompleter(seed_iterations=-1)

    def test_bad_warm_iterations(self):
        with pytest.raises(ValueError, match="warm_iterations"):
            ShardedCompleter(warm_iterations=0)

    def test_bad_solver_fails_eagerly(self):
        # The per-shard completer configuration is validated at
        # construction, before any shard is solved.
        with pytest.raises(ValueError, match="does not support dtype"):
            ShardedCompleter(dtype="float16")
        with pytest.raises(ValueError, match="rank"):
            ShardedCompleter(rank=0)

    def test_mismatched_shards_rejected(self, network, measured):
        shards = contiguous_shards([1, 2, 3], 2)
        with pytest.raises(ValueError):
            _exact_completer().complete(measured, shards)


class TestShardedEstimator:
    def test_estimate_returns_complete_tcm(self, network, measured):
        est = ShardedEstimator(
            network, shards=4, halo=1, rank=RANK, lam=LAM,
            seed_iterations=3, warm_iterations=4, seed=0,
        )
        assert est.num_shards >= 1
        output = est.estimate(measured)
        assert output.estimate.is_complete
        assert list(output.estimate.segment_ids) == list(network.segment_ids)
        assert output.estimate.grid == measured.grid
        assert output.completion.mode == "multilevel"
        assert output.measurements is measured

    def test_segment_mismatch_rejected(self, network):
        est = ShardedEstimator(network, shards=2, seed=0)
        other = TrafficConditionMatrix(
            np.ones((4, 3)),
            grid=TimeGrid(0.0, 600.0, 4),
            segment_ids=[0, 1, 2],
        )
        with pytest.raises(ValueError, match="segment ids"):
            est.estimate(other)

    def test_exact_regime_matches_monolithic(self, network, measured):
        est = ShardedEstimator(
            network, shards=1, partitioner="single", rank=RANK, lam=LAM,
            iterations=ITERS, seed_iterations=0, seed=0,
        )
        output = est.estimate(measured)
        assert output.completion.mode == "exact"
        assert np.array_equal(output.estimate.values, _mono_estimate(measured))
