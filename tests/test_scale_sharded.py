"""Tests for repro.scale.sharded (per-shard completion + stitching)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import completion
from repro.core.completion import CompressiveSensingCompleter
from repro.core.streaming import _warm_complete
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
from repro.scale.sharded import _ShardIndex, _stitch
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

    @pytest.mark.parametrize("seed", range(5))
    def test_downtown_accuracy_matches_monolithic(self, seed):
        """Sharded and monolithic NMAE on the unobserved cells of a
        downtown-scale day (96 x 221 at 20% integrity, 4 tiles with a
        1-hop halo) differ by at most 1e-2.  Seeds 0-4 measured 0.0038,
        0.0057, 0.0025, 0.0074 and 0.0009; this is the tier-1 guard on
        the halo branch of the stitcher."""
        network = shanghai_downtown_like()
        rng = ensure_rng(seed)
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
            seed=seed,
        )
        mono = CompressiveSensingCompleter(**common).complete(measured, mask)
        sharded = ShardedCompleter(
            seed_iterations=5, warm_iterations=8, **common
        ).complete(tcm, GridPartitioner(4, halo=1).partition(network))
        assert sharded.mode == "multilevel"
        mono_nmae = nmae(truth, mono.estimate, ~mask)
        sharded_nmae = nmae(truth, sharded.estimate, ~mask)
        assert abs(sharded_nmae - mono_nmae) <= 1e-2, abs(sharded_nmae - mono_nmae)

    def test_geometry_free_contiguous_shards(self, measured):
        shards = contiguous_shards(measured.segment_ids, 3)
        result = _multilevel_completer().complete(measured, shards)
        assert result.estimate.shape == measured.values.shape


class TestUnobservedTile:
    def test_takes_the_seed_estimate(self, network, measured):
        shards = GridPartitioner(4, halo=0).partition(network)
        col_of = {sid: j for j, sid in enumerate(network.segment_ids)}
        silent = [col_of[sid] for sid in shards[0].all_ids]
        mask = measured.mask
        mask[:, silent] = False
        tcm = TrafficConditionMatrix(
            np.where(mask, measured.values, 0.0),
            mask,
            grid=measured.grid,
            segment_ids=measured.segment_ids,
        )
        result = ShardedCompleter(
            rank=RANK, lam=LAM, seed_iterations=3, warm_iterations=4, seed=0
        ).complete(tcm, shards)
        seed = CompressiveSensingCompleter(
            rank=RANK, lam=LAM, iterations=3, seed=0
        ).complete(tcm.values, tcm.mask)
        assert np.array_equal(result.estimate[:, silent], seed.estimate[:, silent])
        assert result.shards[0].iterations_run == 0
        assert all(s.iterations_run > 0 for s in result.shards[1:])


def _cells_built(tcm):
    """``tcm`` rebuilt from its observed cells, as ``aggregate_reports`` does."""
    mask = tcm.mask
    return TrafficConditionMatrix.from_cells(
        tcm.shape,
        np.flatnonzero(mask),
        tcm.values[mask],
        grid=tcm.grid,
        segment_ids=tcm.segment_ids,
    )


def _dense_multilevel(completer, tcm, shards):
    """The multilevel regime on (m, n) arrays, through the array entries.

    Centres with one masked pass, seeds with ``_fit(values, mask)`` and
    refines every shard on its ``np.take`` column blocks.
    """
    values, mask = tcm.values, tcm.mask
    index = _ShardIndex.build(shards, tcm.segment_ids)
    offset = float(values[mask].mean())
    values = np.where(mask, values - offset, 0.0)
    seed = completer._make_completer(iterations=completer.seed_iterations, clip=False)
    fit = seed._fit(values, mask)
    estimates = []
    for cols in index.cols:
        sub_m, sub_b = np.take(values, cols, axis=1), np.take(mask, cols, axis=1)
        if not sub_b.any():
            estimates.append(seed._estimate(fit.left, fit.right)[:, cols])
            continue
        warm = completer._make_completer(iterations=completer.warm_iterations, clip=False)
        estimates.append(_warm_complete(warm, sub_m, sub_b, fit.left).estimate)
    out = _stitch(values.shape, mask.sum(axis=0), index.ordered, index.cols, estimates)
    out += offset
    return np.clip(out, completer.clip_min, completer.clip_max, out=out)


class TestCellPath:
    """Solving from a TCM's cells matches the dense path, bit for bit.

    A kernel layout rule forced per matrix puts the seed on the layout
    under test and splits the shards between both layouts.
    """

    @staticmethod
    def rule(tcm, shards, seed_sparse, binds):
        """The seed on the chosen layout; the least-observed shards sparse."""
        mask = tcm.mask
        index = _ShardIndex.build(shards, tcm.segment_ids)
        counts = [mask[:, cols].sum() for cols in index.cols]
        least = min(c for c in counts if c)

        def sparse_layout(cells, observed):
            seed = cells == mask.size
            sparse = seed_sparse if seed else bool(observed <= least)
            binds.append((seed, sparse))
            return sparse

        return sparse_layout

    def check(self, tcm, shards, seed_sparse, **kw):
        binds = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                completion, "_sparse_layout", self.rule(tcm, shards, seed_sparse, binds)
            )
            from_cells = kw.pop("completer")(**kw)
            got = from_cells.complete(_cells_built(tcm), shards)
            dense = from_cells.complete(tcm, shards)
            assert got.estimate.tobytes() == dense.estimate.tobytes()
            assert repr(got.shards) == repr(dense.shards)  # NaN objectives
            assert got.offset == dense.offset
            if got.mode == "multilevel":
                want = _dense_multilevel(from_cells, tcm, shards)
                assert got.estimate.tobytes() == want.tobytes()
        shard_layouts = {sparse for is_seed, sparse in binds if not is_seed}
        assert shard_layouts == {False, True}
        if got.mode == "multilevel":
            assert (True, seed_sparse) in binds
        return got

    @pytest.mark.parametrize(
        "regime, seed_sparse",
        [("multilevel", False), ("multilevel", True), ("exact", False)],
    )
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("halo", [0, 1])
    @pytest.mark.parametrize("max_workers", [None, 2])
    def test_matches_dense(
        self, network, measured, regime, seed_sparse, dtype, halo, max_workers
    ):
        completer = _multilevel_completer if regime == "multilevel" else _exact_completer
        result = self.check(
            measured,
            GridPartitioner(4, halo=halo).partition(network),
            seed_sparse,
            completer=completer,
            dtype=dtype,
            max_workers=max_workers,
        )
        assert result.mode == regime

    def test_unsorted_segment_ids(self, network, measured):
        # Shard columns then descend in places: each shard's cells are
        # re-sorted into its own column order.
        perm = np.random.default_rng(5).permutation(measured.num_segments)
        tcm = TrafficConditionMatrix(
            measured.values[:, perm],
            measured.mask[:, perm],
            grid=measured.grid,
            segment_ids=[measured.segment_ids[j] for j in perm],
        )
        self.check(
            tcm,
            GridPartitioner(4, halo=1).partition(network),
            True,
            completer=_multilevel_completer,
        )

    @pytest.mark.parametrize("seed_sparse", [False, True])
    def test_tile_with_nothing_observed(self, network, measured, seed_sparse):
        shards = GridPartitioner(4, halo=0).partition(network)
        silent = [measured.column_of(sid) for sid in shards[0].all_ids]
        mask = measured.mask
        mask[:, silent] = False
        tcm = TrafficConditionMatrix(
            measured.values, mask, grid=measured.grid, segment_ids=measured.segment_ids
        )
        result = self.check(
            tcm, shards, seed_sparse, completer=_multilevel_completer
        )
        assert result.shards[0].iterations_run == 0


class TestStitch:
    """The halo stitch against a column-by-column reference, bit for bit."""

    @staticmethod
    def reference(shape, weights, cols_per_shard, estimates):
        m, n = shape
        out = np.empty((m, n))
        for j in range(n):
            parts = [
                np.asarray(est[:, list(cols).index(j)], dtype=np.float64)
                for cols, est in zip(cols_per_shard, estimates)
                if j in cols
            ]
            if len(parts) == 1:
                out[:, j] = parts[0]
                continue
            w = weights[j] if weights[j] > 0 else 1.0
            acc, total = np.zeros(m), 0.0
            for part in parts:
                acc += part * w if weights[j] > 0 else part
                total += w
            out[:, j] = acc / total
        return out

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("rows", [1, 37])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_reference(self, seed, rows, dtype):
        rng = np.random.default_rng(seed)
        n, num_shards = 60, 5
        owner = rng.integers(num_shards, size=n)
        held = [set(np.flatnonzero(owner == s)) for s in range(num_shards)]
        for j in range(n):  # up to three extra (halo) holders per column
            for s in rng.choice(num_shards, size=rng.integers(0, 4)):
                held[s].add(j)
        cols_per_shard = [rng.permutation(sorted(h)).astype(np.intp) for h in held]
        estimates = [
            rng.normal(40.0, 10.0, (rows, cols.size)).astype(dtype)
            for cols in cols_per_shard
        ]
        weights = rng.integers(0, 4, size=n).astype(np.float64)  # some silent
        shards = [SimpleNamespace(halo_ids=[0]) for _ in range(num_shards)]
        got = _stitch((rows, n), weights, shards, cols_per_shard, estimates)
        want = self.reference((rows, n), weights, cols_per_shard, estimates)
        assert got.tobytes() == want.tobytes()


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

    def test_shards_indexed_once(self, network, measured, monkeypatch):
        from repro.scale import sharded

        calls = []
        real = sharded.validate_shards
        monkeypatch.setattr(
            sharded, "validate_shards", lambda *a: calls.append(1) or real(*a)
        )
        est = ShardedEstimator(
            network, shards=4, halo=1, rank=RANK, lam=LAM,
            seed_iterations=3, warm_iterations=4, seed=0,
        )
        est.estimate(measured)
        est.estimate(measured)
        assert len(calls) == 1
        # Shards handed to the completer directly are checked per call.
        est.completer.complete(measured, est.shards)
        assert len(calls) == 2

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
