"""Ablation and extension benchmarks beyond the paper's tables/figures.

* Mask-aware vs paper-literal inner solver (DESIGN.md's fidelity note).
* Structure ablation: CS vs baselines that only smooth (historical
  mean, temporal interpolation) — quantifies how much of the CS gain
  comes from exploiting cross-segment structure.
* Streaming extension: sliding-window online estimation throughput.
* Algorithm 2: genetic tuning cost and the parameters it selects.
"""

import numpy as np

from benchmarks.conftest import FULL_DAYS
from repro.baselines import HistoricalMean, LinearInterpolation
from repro.core.completion import CompressiveSensingCompleter
from repro.core.tuning import GeneticTuner
from repro.datasets.masks import random_integrity_mask
from repro.experiments.config import make_completer
from repro.experiments.error_vs_integrity import build_city_truth
from repro.experiments.param_sensitivity import run_algorithm2
from repro.metrics.errors import estimate_error
from repro.probes.report import ProbeReport
from repro.roadnet.generators import grid_city
from repro.scale import ShardedStreamingEstimator


def _masked_truth(days=FULL_DAYS, integrity=0.2, slot_s=1800.0, seed=0):
    truth = build_city_truth("shanghai", days, seed=seed).resample(slot_s).tcm
    mask = random_integrity_mask(truth.shape, integrity, seed=seed + 1)
    return truth.values, mask


def test_ablation_mask_aware_solver(once):
    """Mask-aware ALS vs the paper-literal zero-filled solve."""
    x, mask = _masked_truth()
    measured = np.where(mask, x, 0.0)

    def run():
        aware = make_completer(seed=0).complete(measured, mask)
        literal = make_completer(seed=0, mask_aware=False).complete(measured, mask)
        return (
            estimate_error(x, aware.estimate, mask),
            estimate_error(x, literal.estimate, mask),
        )

    aware_err, literal_err = once(run)
    print()
    print("Ablation: inner solver at 20% integrity")
    print(f"  mask-aware ALS:         NMAE = {aware_err:.4f}")
    print(f"  paper-literal (zeros):  NMAE = {literal_err:.4f}")
    assert aware_err < literal_err


def test_ablation_structure_vs_smoothing(once):
    """CS vs pure-smoothing baselines: the gain is structural."""
    x, mask = _masked_truth()
    measured = np.where(mask, x, 0.0)

    def run():
        cs = make_completer(seed=0).complete(measured, mask).estimate
        return {
            "compressive": estimate_error(x, cs, mask),
            "historical-mean": estimate_error(
                x, HistoricalMean().complete(measured, mask), mask
            ),
            "linear-interp": estimate_error(
                x, LinearInterpolation().complete(measured, mask), mask
            ),
        }

    errs = once(run)
    print()
    print("Ablation: structure vs smoothing at 20% integrity")
    for name, err in errs.items():
        print(f"  {name:16s} NMAE = {err:.4f}")
    assert errs["compressive"] < errs["historical-mean"]
    assert errs["compressive"] < errs["linear-interp"]


def test_extension_streaming_throughput(once):
    """Online sliding-window estimation over a synthetic report stream."""
    rng = np.random.default_rng(0)
    network = grid_city(5, 5)  # segment ids 0-79; the reports use 0-59
    reports = []
    for slot in range(96):
        for _ in range(40):
            reports.append(
                ProbeReport(
                    vehicle_id=int(rng.integers(100)),
                    time_s=slot * 900.0 + float(rng.uniform(0, 900)),
                    x=0.0,
                    y=0.0,
                    speed_kmh=float(rng.uniform(10, 60)),
                    segment_id=int(rng.integers(60)),
                )
            )
    reports.sort(key=lambda r: r.time_s)

    def run():
        streamer = ShardedStreamingEstimator(
            network, partitioner="single", slot_s=900.0, window_slots=24, seed=0
        )
        streamer.ingest_many(reports)
        streamer.flush()
        return streamer

    streamer = once(run)
    print()
    print(
        f"Streaming extension: {len(reports)} reports -> "
        f"{len(streamer.estimates)} live slot estimates"
    )
    assert len(streamer.estimates) == 96


def test_ablation_confidence_weighting(once):
    """Weighted vs unweighted completion under heterogeneous cell noise.

    Cells backed by a single probe report carry the full measurement
    noise; cells averaging many reports are clean.  Confidence weights
    derived from report counts must beat uniform weighting.
    """
    from repro.core.weighted import ConfidenceWeightedCompleter, weights_from_counts

    truth = build_city_truth("shanghai", 3.0, seed=0).resample(1800.0).tcm
    x = truth.values
    rng = np.random.default_rng(1)
    mask = random_integrity_mask(x.shape, 0.3, seed=2)
    single = mask & (rng.random(x.shape) < 0.5)
    multi = mask & ~single
    # A lone probe's speed deviates from the flow mean by the driver
    # factor plus within-slot variation — far noisier than the matrix's
    # intrinsic structure noise.
    noisy = x * rng.lognormal(0.0, 0.35, size=x.shape)
    measured = np.where(single, noisy, np.where(multi, x, 0.0))
    counts = np.where(single, 1.0, np.where(multi, 12.0, 0.0))

    def run():
        weighted = ConfidenceWeightedCompleter(
            rank=2, lam=10.0, iterations=60, clip_min=0.0, seed=0
        ).complete(measured, weights_from_counts(counts))
        unweighted = make_completer(seed=0).complete(measured, mask)
        return (
            estimate_error(x, weighted.estimate, mask),
            estimate_error(x, unweighted.estimate, mask),
        )

    err_weighted, err_uniform = once(run)
    print()
    print("Ablation: confidence weighting under heterogeneous cell noise")
    print(f"  report-count weights: NMAE = {err_weighted:.4f}")
    print(f"  uniform weights:      NMAE = {err_uniform:.4f}")
    assert err_weighted < err_uniform


def test_extension_algorithm2_tuning(once):
    """Algorithm 2's genetic search on the Shanghai matrix."""
    tuner = GeneticTuner(
        rank_bounds=(1, 16),
        population_size=8,
        generations=4,
        completer_iterations=20,
        seed=0,
    )
    result = once(lambda: run_algorithm2(days=3.0, seed=0, tuner=tuner))
    print()
    print(
        f"Algorithm 2 selected r={result.rank}, lambda={result.lam:.2f} "
        f"(validation NMAE {result.fitness:.4f}; paper selected r=2, lambda=100)"
    )
    assert result.rank <= 8
    assert np.isfinite(result.fitness)
