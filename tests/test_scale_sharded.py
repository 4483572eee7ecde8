"""Tests for repro.scale.sharded (per-shard completion + stitching)."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import completion
from repro.core.completion import CompressiveSensingCompleter
from repro.core.streaming import _warm_complete
from repro.core.tcm import TimeGrid, TrafficConditionMatrix
from repro.datasets.masks import random_integrity_mask
from repro.experiments.perf_bench import _make_truth
from repro.metrics.errors import nmae
from repro.probes.aggregation import MAX_SPEED_KMH
from repro.roadnet.generators import grid_city, shanghai_downtown_like
from repro.scale import (
    GridPartitioner,
    ShardedEstimator,
    SinglePartitioner,
    contiguous_shards,
)
from repro.scale.sharded import _stitch
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


class _Given:
    """A partitioner that hands out ready-made shards, in the given order."""

    def __init__(self, shards):
        self.shards = list(shards)

    def partition(self, columns):
        return list(self.shards)


def _exact_estimator(columns, partitioner, **kw):
    kw.setdefault("seed", 0)
    return ShardedEstimator(
        columns, partitioner=partitioner, rank=RANK, lam=LAM, iterations=ITERS,
        seed_iterations=0, **kw,
    )


def _multilevel_estimator(columns, partitioner, **kw):
    kw.setdefault("seed", 0)
    return ShardedEstimator(
        columns, partitioner=partitioner, rank=RANK, lam=LAM, seed_iterations=3,
        warm_iterations=4, **kw,
    )


def _mono_estimate(measured):
    mono = CompressiveSensingCompleter(
        rank=RANK, lam=LAM, iterations=ITERS,
        center=True, clip_min=0.0, clip_max=150.0, seed=0,
    )
    return mono.complete(measured.values, measured.mask).estimate


class TestExactRegime:
    def test_single_shard_equals_monolithic(self, network, measured):
        est = _exact_estimator(network, SinglePartitioner())
        result = est.estimate(measured).completion
        assert result.mode == "exact"
        assert np.array_equal(result.estimate, _mono_estimate(measured))

    def test_halo_zero_equals_monolithic_per_shard(self, network, measured):
        est = _exact_estimator(network, GridPartitioner(4, halo=0))
        result = est.estimate(measured).completion
        mono = CompressiveSensingCompleter(
            rank=RANK, lam=LAM, iterations=ITERS,
            center=True, clip_min=0.0, clip_max=150.0, seed=0,
        )
        col_of = {sid: j for j, sid in enumerate(measured.segment_ids)}
        for shard in est.shards:
            cols = np.array([col_of[s] for s in shard.all_ids])
            sub = mono.complete(
                np.ascontiguousarray(measured.values[:, cols]),
                np.ascontiguousarray(measured.mask[:, cols]),
            )
            assert np.array_equal(result.estimate[:, cols], sub.estimate)


class TestMultilevelRegime:
    def test_serial_equals_pool(self, network, measured):
        tiles = GridPartitioner(4, halo=1)
        serial = _multilevel_estimator(network, tiles).estimate(measured).completion
        pooled = _multilevel_estimator(network, tiles, max_workers=3).estimate(
            measured
        ).completion
        assert serial.mode == "multilevel"
        assert np.array_equal(serial.estimate, pooled.estimate)

    def test_shard_input_order_irrelevant(self, network, measured):
        tiles = GridPartitioner(4, halo=1)
        forward = _multilevel_estimator(network, tiles).estimate(measured)
        backward = _multilevel_estimator(
            network, _Given(reversed(tiles.partition(network)))
        ).estimate(measured)
        assert np.array_equal(
            forward.completion.estimate, backward.completion.estimate
        )

    def test_estimate_is_complete_and_clipped(self, network, measured):
        est = _multilevel_estimator(network, GridPartitioner(4, halo=1))
        result = est.estimate(measured).completion
        assert result.estimate.shape == measured.values.shape
        assert np.isfinite(result.estimate).all()
        assert result.estimate.min() >= 0.0
        assert result.estimate.max() <= 150.0
        assert result.seed_objective is not None
        assert result.stitch_s >= 0.0

    def test_shard_summaries(self, network, measured):
        est = _multilevel_estimator(network, GridPartitioner(4, halo=1))
        result = est.estimate(measured).completion
        assert [s.shard_id for s in result.shards] == list(range(est.num_shards))
        assert sum(s.num_core for s in result.shards) == network.num_segments
        assert all(s.observed_cells > 0 for s in result.shards)

    def test_multilevel_tracks_monolithic(self, network, measured):
        """Stitched multilevel estimate stays close to the monolithic one
        on the unobserved cells (the quantity the paper's NMAE scores)."""
        est = _multilevel_estimator(network, GridPartitioner(4, halo=1))
        result = est.estimate(measured).completion
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
        common = dict(rank=2, lam=10.0, iterations=20, seed=seed)
        mono = CompressiveSensingCompleter(
            center=True, clip_min=0.0, clip_max=150.0, **common
        ).complete(measured, mask)
        sharded = ShardedEstimator(
            network, shards=4, halo=1, seed_iterations=5, warm_iterations=8,
            **common,
        ).estimate(tcm).completion
        assert sharded.mode == "multilevel"
        mono_nmae = nmae(truth, mono.estimate, ~mask)
        sharded_nmae = nmae(truth, sharded.estimate, ~mask)
        assert abs(sharded_nmae - mono_nmae) <= 1e-2, abs(sharded_nmae - mono_nmae)

    def test_geometry_free_contiguous_shards(self, measured):
        est = _multilevel_estimator(
            measured.segment_ids, "contiguous", shards=3
        )
        assert est.num_shards == 3
        result = est.estimate(measured).completion
        assert result.estimate.shape == measured.values.shape


class TestUnobservedTile:
    def test_takes_the_seed_estimate(self, network, measured):
        est = _multilevel_estimator(network, GridPartitioner(4, halo=0))
        col_of = {sid: j for j, sid in enumerate(network.segment_ids)}
        silent = [col_of[sid] for sid in est.shards[0].all_ids]
        mask = measured.mask
        mask[:, silent] = False
        tcm = TrafficConditionMatrix(
            np.where(mask, measured.values, 0.0),
            mask,
            grid=measured.grid,
            segment_ids=measured.segment_ids,
        )
        result = est.estimate(tcm).completion
        # The seed solve is the centred, clipped completer cut to the
        # seed budget: the global offset it removes is added back after
        # the stitch, as the completer adds back its own.
        seed = CompressiveSensingCompleter(
            rank=RANK, lam=LAM, iterations=3, center=True, clip_min=0.0,
            clip_max=MAX_SPEED_KMH, seed=0,
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


def _dense_multilevel(est, tcm):
    """The multilevel regime on (m, n) arrays, through the array entries.

    Centres with one masked pass, seeds with ``_fit(values, mask)`` and
    refines every shard on its ``np.take`` column blocks.
    """
    values, mask = tcm.values, tcm.mask
    index = est._index
    offset = float(values[mask].mean())
    values = np.where(mask, values - offset, 0.0)
    seed = est._make_completer(iterations=est.seed_iterations)
    fit = seed._fit(values, mask)
    estimates = []
    for cols in index.cols:
        sub_m, sub_b = np.take(values, cols, axis=1), np.take(mask, cols, axis=1)
        if not sub_b.any():
            estimates.append(seed._estimate(fit.left, fit.right)[:, cols])
            continue
        warm = est._make_completer(iterations=est.warm_iterations)
        estimates.append(_warm_complete(warm, sub_m, sub_b, fit.left).estimate)
    out = _stitch(values.shape, mask.sum(axis=0), index.ordered, index.cols, estimates)
    out += offset
    return np.clip(out, 0.0, MAX_SPEED_KMH, out=out)


class TestCellPath:
    """Solving from a TCM's cells matches the dense path, bit for bit.

    A kernel layout rule forced per matrix puts the seed on the layout
    under test and splits the shards between both layouts.
    """

    @staticmethod
    def rule(tcm, index, seed_sparse, binds):
        """The seed on the chosen layout; the least-observed shards sparse."""
        mask = tcm.mask
        counts = [mask[:, cols].sum() for cols in index.cols]
        least = min(c for c in counts if c)

        def sparse_layout(cells, observed):
            seed = cells == mask.size
            sparse = seed_sparse if seed else bool(observed <= least)
            binds.append((seed, sparse))
            return sparse

        return sparse_layout

    def check(self, tcm, est, seed_sparse):
        binds = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                completion, "_sparse_layout", self.rule(tcm, est._index, seed_sparse, binds)
            )
            got = est.estimate(_cells_built(tcm)).completion
            dense = est.estimate(tcm).completion
            assert got.estimate.tobytes() == dense.estimate.tobytes()
            assert repr(got.shards) == repr(dense.shards)  # NaN objectives
            assert got.offset == dense.offset
            if got.mode == "multilevel":
                want = _dense_multilevel(est, tcm)
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
        make = _multilevel_estimator if regime == "multilevel" else _exact_estimator
        est = make(
            network, GridPartitioner(4, halo=halo), dtype=dtype, max_workers=max_workers
        )
        result = self.check(measured, est, seed_sparse)
        assert result.mode == regime

    def test_unsorted_segment_ids(self, network, measured):
        # Each shard's block keeps the matrix's column order, so its
        # cells stay row-major with the ids out of order.
        perm = np.random.default_rng(5).permutation(measured.num_segments)
        tcm = TrafficConditionMatrix(
            measured.values[:, perm],
            measured.mask[:, perm],
            grid=measured.grid,
            segment_ids=[measured.segment_ids[j] for j in perm],
        )
        tiles = _Given(GridPartitioner(4, halo=1).partition(network))
        self.check(tcm, _multilevel_estimator(tcm.segment_ids, tiles), True)

    @pytest.mark.parametrize("seed_sparse", [False, True])
    def test_tile_with_nothing_observed(self, network, measured, seed_sparse):
        est = _multilevel_estimator(network, GridPartitioner(4, halo=0))
        silent = [measured.column_of(sid) for sid in est.shards[0].all_ids]
        mask = measured.mask
        mask[:, silent] = False
        tcm = TrafficConditionMatrix(
            measured.values, mask, grid=measured.grid, segment_ids=measured.segment_ids
        )
        result = self.check(tcm, est, seed_sparse)
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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_disjoint_matches_reference(self, dtype):
        # An ascending run (placed as a slice), the same run permuted,
        # and scattered columns.
        cols_per_shard = [
            np.arange(0, 4), np.array([5, 4, 6]), np.array([7, 9, 11]),
            np.array([8, 10]),
        ]
        rng = np.random.default_rng(0)
        estimates = [rng.normal(40.0, 10.0, (5, c.size)).astype(dtype) for c in cols_per_shard]
        shards = [SimpleNamespace(halo_ids=()) for _ in cols_per_shard]
        got = _stitch((5, 12), None, shards, cols_per_shard, estimates)
        want = self.reference((5, 12), np.zeros(12), cols_per_shard, estimates)
        assert got.tobytes() == want.tobytes()


#: The five partitions the one batch estimator is drawn over: (source
#: of the columns, partitioner, shards, halo, seed sweeps).  ``0`` seed
#: sweeps is the exact regime at any shard count.
PARTITIONS = {
    "single from ids": ("ids", "single", 1, 0, 2),
    "contiguous from ids": ("ids", "contiguous", None, 0, 2),
    "grid halo 0": ("network", "grid", 4, 0, 2),
    "grid halo 1": ("network", "grid", 4, 1, 2),
    "exact, several shards": ("network", "grid", 4, 1, 0),
}

_SMALL_CITY = grid_city(3, 3, seed=0)


@st.composite
def batch_problems(draw):
    """A ShardedEstimator and a small TCM over its columns.

    The TCM may have all-missing rows and columns, fewer observed rows
    than the rank, and one tile with nothing observed.
    """
    name = draw(st.sampled_from(sorted(PARTITIONS)))
    source, partitioner, shards, halo, seed_iterations = PARTITIONS[name]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if source == "network":
        columns = _SMALL_CITY
        ids = list(_SMALL_CITY.segment_ids)
    else:
        n = draw(st.integers(3, 24))
        ids = [int(s) for s in rng.permutation(np.arange(n) * 3 + 7)]
        columns = ids
    if shards is None:
        shards = draw(st.integers(2, 3))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    est = ShardedEstimator(
        columns, shards=shards, halo=halo, partitioner=partitioner,
        rank=draw(st.integers(1, 4)), lam=draw(st.sampled_from([1.0, 10.0, 100.0])),
        iterations=6, seed_iterations=seed_iterations, warm_iterations=3,
        dtype=dtype, seed=draw(st.integers(0, 1000)),
    )

    slots, n = draw(st.integers(2, 10)), len(ids)
    mask = rng.random((slots, n)) < draw(st.floats(0.05, 0.9))
    mask[rng.permutation(slots)[: draw(st.integers(0, slots - 1))]] = False
    mask[:, rng.permutation(n)[: draw(st.integers(0, 3))]] = False
    if draw(st.booleans()):
        dark = est._index.cols[draw(st.integers(0, est.num_shards - 1))]
        mask[:, dark] = False
    values = rng.uniform(1.0, MAX_SPEED_KMH, (slots, n))
    tcm = TrafficConditionMatrix(
        np.where(mask, values, 0.0), mask,
        grid=TimeGrid(0.0, 600.0, slots), segment_ids=ids,
    )
    return est, tcm, dtype


class TestBatchEstimatorProperties:
    """Invariants of the one batch estimator over the five partitions."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(batch_problems())
    def test_estimate_or_documented_error(self, problem):
        est, tcm, dtype = problem
        mask = tcm.mask
        dark = [i for i, cols in enumerate(est._index.cols) if not mask[:, cols].any()]
        exact = est.seed_iterations == 0 or est.num_shards == 1
        if not mask.any() or (exact and dark):
            # Nothing observed at all, or a dark tile in the exact regime.
            with pytest.raises(ValueError, match="no observed entries"):
                est.estimate(tcm)
            return

        output = est.estimate(tcm)
        values = output.estimate.values_view
        assert values.shape == tcm.shape
        assert np.isfinite(values).all()
        assert values.min() >= 0.0 and values.max() <= MAX_SPEED_KMH
        assert output.estimate.segment_ids == tcm.segment_ids
        assert output.completion.mode == ("exact" if exact else "multilevel")
        # A dark tile takes the seed fallback: no sweep of its own.
        for i in dark:
            assert output.completion.shards[i].iterations_run == 0
            assert np.isnan(output.completion.shards[i].objective)

        if est.num_shards == 1:
            mono = CompressiveSensingCompleter(
                rank=est.rank, lam=est.lam, iterations=est.iterations, dtype=dtype,
                center=True, clip_min=0.0, clip_max=MAX_SPEED_KMH, seed=est._seed,
            ).complete(tcm.values, mask).estimate
            assert values.tobytes() == mono.astype(np.float64).tobytes()


class TestValidation:
    def test_bad_seed_iterations(self, network):
        with pytest.raises(ValueError, match="seed_iterations"):
            ShardedEstimator(network, seed_iterations=-1)

    def test_bad_warm_iterations(self, network):
        with pytest.raises(ValueError, match="warm_iterations"):
            ShardedEstimator(network, warm_iterations=0)

    def test_bad_solver_fails_eagerly(self, network):
        # The per-shard completer configuration is validated at
        # construction, before any shard is solved.
        with pytest.raises(ValueError, match="does not support dtype"):
            ShardedEstimator(network, dtype="float16")
        with pytest.raises(ValueError, match="rank"):
            ShardedEstimator(network, rank=0)

    def test_mismatched_shards_rejected(self, network):
        shards = contiguous_shards([1, 2, 3], 2)
        with pytest.raises(ValueError):
            _exact_estimator(network, _Given(shards))


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
        # Explicitly exact, and by the one-shard rule at default budgets.
        for budgets in ({"seed_iterations": 0}, {}):
            est = ShardedEstimator(
                network, shards=1, partitioner="single", rank=RANK, lam=LAM,
                iterations=ITERS, seed=0, **budgets,
            )
            output = est.estimate(measured)
            assert output.completion.mode == "exact"
            assert np.array_equal(output.estimate.values, _mono_estimate(measured))

    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("source", ["network", "shuffled ids"])
    def test_one_shard_is_the_monolithic_solve(self, network, source, dtype, layout):
        """One shard equals the centred, clipped monolithic completion."""
        rng = np.random.default_rng(11)
        n = network.num_segments
        slots, observed = (20, 0.4) if layout == "dense" else (1700, 0.04)
        truth = rng.uniform(0.6, 1.4, (slots, RANK)) @ rng.uniform(15.0, 45.0, (RANK, n))
        mask = rng.random((slots, n)) < observed
        assert completion._sparse_layout(mask.size, mask.sum()) == (layout == "sparse")
        ids = list(network.segment_ids)
        if source == "shuffled ids":
            ids = [ids[j] for j in rng.permutation(n)]
        tcm = TrafficConditionMatrix(np.where(mask, truth, 0.0), mask, segment_ids=ids)
        est = ShardedEstimator(
            network if source == "network" else ids, partitioner="single",
            rank=RANK, lam=LAM, iterations=ITERS, dtype=dtype, seed=0,
        )
        output = est.estimate(tcm)
        mono = CompressiveSensingCompleter(
            rank=RANK, lam=LAM, iterations=ITERS, dtype=dtype,
            center=True, clip_min=0.0, clip_max=MAX_SPEED_KMH, seed=0,
        ).complete(tcm.values, tcm.mask).estimate
        assert output.completion.mode == "exact"
        assert output.estimate.segment_ids == ids
        assert output.estimate.values.tobytes() == mono.astype(np.float64).tobytes()

    def test_grid_needs_a_network(self, network):
        with pytest.raises(ValueError, match="'single' or 'contiguous'"):
            ShardedEstimator(network.segment_ids, shards=4, seed=0)

    @pytest.mark.parametrize("partitioner", ["single", "grid"])
    def test_estimate_is_the_stitched_array(self, network, measured, partitioner):
        output = ShardedEstimator(
            network, partitioner=partitioner, rank=RANK, lam=LAM,
            iterations=ITERS, seed=0,
        ).estimate(measured)
        stitched = output.completion.estimate
        assert np.shares_memory(stitched, output.estimate.values_view)
        assert not stitched.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            stitched[0, 0] = 0.0
        assert output.estimate.is_complete

    def test_nonfinite_stitch_rejected(self, network, measured, monkeypatch):
        from repro.scale import sharded

        def poisoned(*args):
            out = _stitch(*args)
            out[0, 0] = np.nan
            return out

        monkeypatch.setattr(sharded, "_stitch", poisoned)
        est = ShardedEstimator(network, partitioner="single", iterations=ITERS, seed=0)
        with pytest.raises(ValueError, match="finite"):
            est.estimate(measured)
