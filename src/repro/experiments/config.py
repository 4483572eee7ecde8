"""Shared experiment configuration.

Pin the algorithm roster and parameters used throughout Section 4:

* Compressive sensing — rank r=2 as in the paper; our Algorithm 2 run on
  the synthetic Shanghai dataset selects lambda ~= 10 (the paper's taxi
  data selected 100 — the optimum depends on data scale and integrity;
  our own GA-tuned value is the faithful analogue of "according to the
  result of Algorithm 2").
* Naive KNN — K=4.
* Correlation KNN — K=4 (rows at offsets +/-1, +/-2).
* MSSA — window M=24 as suggested by SEER; the ``truncated`` solver is
  used in accuracy experiments (identical estimates, tractable run
  time), the faithful ``covariance`` solver in the Table 2 timing study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.baselines import CorrelationKNN, MSSA, NaiveKNN
from repro.core.completion import CompressiveSensingCompleter

GRANULARITIES_S = (900.0, 1800.0, 3600.0)

# Our Algorithm 2 result on the synthetic Shanghai dataset (see
# EXPERIMENTS.md): rank matches the paper's r=2; lambda lands near 10.
TUNED_RANK = 2
TUNED_LAMBDA = 10.0
CS_ITERATIONS = 60


@dataclass(frozen=True)
class AlgorithmSpec:
    """A named completion algorithm for comparative studies.

    ``factory`` builds a fresh algorithm instance per run (some
    algorithms are stateful across ``complete`` calls only through their
    RNG, but fresh instances keep runs independent).
    """

    name: str
    factory: Callable[[], object]

    def complete(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Run the algorithm; normalizes the CS result to a plain array."""
        algo = self.factory()
        result = algo.complete(values, mask)
        return result.estimate if hasattr(result, "estimate") else result


def make_completer(
    seed: int = 0,
    dtype: object = None,
    max_workers: Optional[int] = None,
    **overrides,
) -> CompressiveSensingCompleter:
    """The experiments' CS configuration with optional overrides.

    ``dtype`` selects the working precision and ``max_workers`` sizes
    the restart worker pool (both forwarded verbatim; see
    :class:`CompressiveSensingCompleter`).
    """
    params = dict(
        rank=TUNED_RANK,
        lam=TUNED_LAMBDA,
        iterations=CS_ITERATIONS,
        clip_min=0.0,
        dtype=dtype,
        max_workers=max_workers,
        seed=seed,
    )
    params.update(overrides)
    return CompressiveSensingCompleter(**params)


def default_algorithms(
    seed: int = 0,
    include_mssa: bool = True,
    mssa_solver: str = "truncated",
) -> List[AlgorithmSpec]:
    """The paper's four-algorithm roster (Section 4.2/4.3).

    ``include_mssa=False`` reproduces the Shenzhen experiments, where
    the paper drops MSSA "since MSSA runs very slowly".
    """
    roster = [
        AlgorithmSpec("compressive", lambda: make_completer(seed=seed)),
        AlgorithmSpec("naive-knn", lambda: NaiveKNN(k=4)),
        AlgorithmSpec("correlation-knn", lambda: CorrelationKNN(k=4)),
    ]
    if include_mssa:
        roster.append(
            AlgorithmSpec(
                "mssa",
                lambda: MSSA(
                    window=24, components=5, max_iterations=8, solver=mssa_solver
                ),
            )
        )
    return roster
