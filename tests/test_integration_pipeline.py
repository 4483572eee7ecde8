"""End-to-end integration tests across all subsystems."""

import numpy as np
import pytest

from repro import quickstart_estimate
from repro.core import TrafficEstimator
from repro.datasets.masks import random_integrity_mask
from repro.datasets.synthetic import SyntheticDatasetConfig, build_probe_dataset
from repro.metrics.errors import estimate_error, nmae
from repro.probes.mapmatch import MapMatcher
from repro.probes.report import ReportBatch
from repro.roadnet.generators import grid_city
from repro.scale import ShardedStreamingEstimator


class TestQuickstart:
    def test_runs(self):
        output = quickstart_estimate(seed=0)
        assert output.estimate.is_complete
        assert 0 < output.measurements.integrity < 1


class TestFullPipeline:
    @pytest.fixture(scope="class")
    def dataset(self):
        network = grid_city(5, 5, seed=0)
        config = SyntheticDatasetConfig(days=1.0, num_vehicles=120, slot_s=1800.0)
        return build_probe_dataset(network, config, seed=0)

    def test_estimation_beats_historical_mean(self, dataset):
        from repro.baselines import HistoricalMean

        measured = dataset.measurements
        output = TrafficEstimator(iterations=60, seed=0).estimate(measured)
        cs_err = estimate_error(
            dataset.truth_tcm.values, output.estimate.values, measured.mask
        )
        hm = HistoricalMean().complete(measured.values, measured.mask)
        hm_err = estimate_error(dataset.truth_tcm.values, hm, measured.mask)
        assert cs_err < hm_err

    def test_masked_down_estimation_recovers(self, dataset):
        """The paper's Section 4 protocol: thin the matrix, estimate, score."""
        truth = dataset.truth_tcm
        mask = random_integrity_mask(truth.shape, 0.2, seed=1)
        masked = truth.with_mask(mask)
        output = TrafficEstimator(iterations=60, seed=0).estimate(masked)
        err = estimate_error(truth.values, output.estimate.values, mask)
        assert err < 0.35

    def test_map_matching_round_trip(self, dataset):
        """Noisy positions map-match to roughly the right segments."""
        driving = ReportBatch([r for r in dataset.reports if r.segment_id >= 0][:300])
        matcher = MapMatcher(dataset.network, max_distance_m=40.0)
        matched = matcher.match_batch(driving)
        assert np.mean(matched.segment_ids >= 0) > 0.9

    def test_streaming_matches_batch_scale(self, dataset):
        """Online estimates land in the same range as offline ones."""
        grid = dataset.ground_truth.grid
        streamer = ShardedStreamingEstimator(
            dataset.network,
            partitioner="single",
            slot_s=grid.slot_s,
            window_slots=12,
            rank=2,
            lam=10.0,
            seed=0,
        )
        streamer.ingest_batch(dataset.reports)
        streamer.flush()
        assert len(streamer.estimates) >= grid.num_slots - 1
        final = streamer.estimates[-1].speeds_kmh
        truth_final = dataset.truth_tcm.values[len(streamer.estimates) - 1]
        # Same physical range, not wildly off.
        assert nmae(truth_final[None], final[None]) < 0.6


class TestSeedIsolation:
    def test_independent_stages_reproducible(self):
        network = grid_city(4, 4, seed=0)
        config = SyntheticDatasetConfig(days=0.25, num_vehicles=20, slot_s=900.0)
        a = build_probe_dataset(network, config, seed=42)
        b = build_probe_dataset(network, config, seed=42)
        est_a = TrafficEstimator(iterations=20, seed=7).estimate(a.measurements)
        est_b = TrafficEstimator(iterations=20, seed=7).estimate(b.measurements)
        assert np.allclose(est_a.estimate.values, est_b.estimate.values)
