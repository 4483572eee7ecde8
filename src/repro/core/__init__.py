"""The paper's primary contribution.

* :mod:`repro.core.tcm` — traffic condition matrix (TCM) abstraction:
  time grid, measurement/indicator pair, integrity (Definitions 1 and 4).
* :mod:`repro.core.svd_analysis` — SVD/PCA structure analysis (Eq. 7-9).
* :mod:`repro.core.eigenflows` — eigenflow extraction and the three-type
  classification of Eq. 10.
* :mod:`repro.core.completion` — Algorithm 1, the compressive-sensing
  matrix completion solver (Eq. 13-17), with its float32/float64
  workspace kernel.
* :mod:`repro.core.tuning` — Algorithm 2, the genetic hyper-parameter
  search for (rank bound r, tradeoff coefficient lambda).
* :mod:`repro.core.estimator` — high-level facade tying it together.
* :mod:`repro.core.streaming` — the sliding-window state behind the
  online extension (the paper's first future-work item), driven by
  :class:`repro.scale.streaming.ShardedStreamingEstimator`.
* :mod:`repro.core.matrix_selection` — TCM construction from segment
  neighbourhoods (Section 4.5 / second future-work item).
"""

from repro.core.tcm import TimeGrid, TrafficConditionMatrix
from repro.core.svd_analysis import (
    SpectrumSummary,
    effective_rank,
    rank_r_approximation,
    singular_value_spectrum,
)
from repro.core.eigenflows import (
    EigenflowAnalysis,
    EigenflowType,
    analyze_eigenflows,
    classify_eigenflow,
    has_spike,
    reconstruct_from_types,
)
from repro.core.completion import (
    FLOAT32_RTOL,
    CompletionResult,
    CompressiveSensingCompleter,
)
from repro.core.tuning import FitnessCacheStats, GeneticTuner, TuningResult
from repro.core.estimator import TrafficEstimator
from repro.core.matrix_selection import (
    SegmentSetBuilder,
    build_paper_sets,
)
from repro.core.anomaly import (
    AnomalyEvent,
    EigenflowAnomalyDetector,
    ResidualAnomalyDetector,
)
from repro.core.weighted import ConfidenceWeightedCompleter, weights_from_counts
from repro.core.diagnostics import (
    convergence_diagnostics,
    coverage_error_profile,
    fit_diagnostics,
)
from repro.core.online_anomaly import OnlineAlert, OnlineAnomalyMonitor

__all__ = [
    "TimeGrid",
    "TrafficConditionMatrix",
    "SpectrumSummary",
    "effective_rank",
    "rank_r_approximation",
    "singular_value_spectrum",
    "EigenflowAnalysis",
    "EigenflowType",
    "analyze_eigenflows",
    "classify_eigenflow",
    "has_spike",
    "reconstruct_from_types",
    "FLOAT32_RTOL",
    "CompletionResult",
    "CompressiveSensingCompleter",
    "FitnessCacheStats",
    "GeneticTuner",
    "TuningResult",
    "TrafficEstimator",
    "SegmentSetBuilder",
    "build_paper_sets",
    "AnomalyEvent",
    "EigenflowAnomalyDetector",
    "ResidualAnomalyDetector",
    "ConfidenceWeightedCompleter",
    "weights_from_counts",
    "convergence_diagnostics",
    "coverage_error_profile",
    "fit_diagnostics",
    "OnlineAlert",
    "OnlineAnomalyMonitor",
]
