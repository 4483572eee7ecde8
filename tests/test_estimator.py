"""Tests for batch estimation through one shard (the monolithic solve).

``ShardedEstimator(..., partitioner="single")`` is the paper-scale
estimator: one shard runs Algorithm 1 exactly, centred and clipped.
"""

import numpy as np
import pytest

from repro.core.tuning import GeneticTuner
from repro.metrics.errors import estimate_error
from repro.scale import ShardedEstimationOutput, ShardedEstimator


def _estimator(columns, **kw):
    return ShardedEstimator(columns, partitioner="single", **kw)


class TestEstimate:
    def test_output_structure(self, masked_tcm):
        output = _estimator(masked_tcm.segment_ids, iterations=20, seed=0).estimate(
            masked_tcm
        )
        assert isinstance(output, ShardedEstimationOutput)
        assert output.estimate.shape == masked_tcm.shape
        assert output.estimate.is_complete
        assert output.measurements is masked_tcm
        assert output.completion.mode == "exact"

    def test_estimate_preserves_grid_and_ids(self, masked_tcm):
        output = _estimator(masked_tcm.segment_ids, iterations=20, seed=0).estimate(
            masked_tcm
        )
        assert output.estimate.grid == masked_tcm.grid
        assert output.estimate.segment_ids == masked_tcm.segment_ids

    def test_speeds_clipped_physical(self, masked_tcm):
        output = _estimator(masked_tcm.segment_ids, iterations=20, seed=0).estimate(
            masked_tcm
        )
        values = output.estimate.values
        assert values.min() >= 0.0
        assert values.max() <= 150.0

    def test_estimate_beats_zero_baseline(self, truth_tcm, masked_tcm):
        output = _estimator(masked_tcm.segment_ids, iterations=40, seed=0).estimate(
            masked_tcm
        )
        err = estimate_error(
            truth_tcm.values, output.estimate.values, masked_tcm.mask
        )
        zero_err = estimate_error(
            truth_tcm.values, np.zeros(truth_tcm.shape), masked_tcm.mask
        )
        assert err < 0.5 * zero_err

    def test_auto_tune_records_result(self, masked_tcm):
        # Algorithm 2 is a step before the estimate: tune, then estimate
        # with the tuned (rank, lambda).
        tuning = GeneticTuner(
            rank_bounds=(1, 4),
            population_size=4,
            generations=2,
            completer_iterations=8,
            seed=0,
        ).tune(masked_tcm)
        assert 1 <= tuning.rank <= 4
        estimator = _estimator(
            masked_tcm.segment_ids,
            rank=tuning.rank,
            lam=tuning.lam,
            iterations=15,
            seed=0,
        )
        output = estimator.estimate(masked_tcm)
        assert estimator.rank == tuning.rank
        assert estimator.lam == tuning.lam
        assert output.estimate.is_complete


class TestFromReports:
    def test_full_pipeline(self, ground_truth):
        from repro.mobility.fleet import FleetConfig, FleetSimulator

        sim = FleetSimulator(ground_truth, FleetConfig(num_vehicles=30), seed=3)
        reports = sim.run()
        estimator = _estimator(ground_truth.network, iterations=25, seed=0)
        output = estimator.estimate_from_reports(reports, ground_truth.grid)
        assert output.measurements.integrity > 0
        assert output.estimate.is_complete

    def test_aggregate_only(self, ground_truth):
        from repro.mobility.fleet import FleetConfig, FleetSimulator

        sim = FleetSimulator(ground_truth, FleetConfig(num_vehicles=10), seed=4)
        reports = sim.run()
        estimator = _estimator(ground_truth.network.segment_ids, seed=0)
        tcm = estimator.aggregate(reports, ground_truth.grid)
        assert tcm.shape == ground_truth.tcm.shape
        assert tcm.segment_ids == ground_truth.network.segment_ids

    def test_ids_must_match(self, masked_tcm):
        estimator = _estimator(masked_tcm.segment_ids[::-1], seed=0)
        with pytest.raises(ValueError, match="segment ids"):
            estimator.estimate(masked_tcm)
