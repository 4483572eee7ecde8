"""Shared fixtures for the test suite.

Everything here is deliberately small: a 4x4 grid city, a two-day
ground truth at 30-minute granularity, and a pre-masked measurement
matrix — enough structure for the algorithms to exercise their logic
while keeping the whole suite fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.tcm import TimeGrid, TrafficConditionMatrix
from repro.datasets.masks import random_integrity_mask
from repro.roadnet.generators import grid_city
from repro.traffic.dynamics import TrafficDynamicsConfig
from repro.traffic.groundtruth import GroundTruthTraffic

#: A fast path must match its oracle at least this tightly (max abs
#: difference over every cell of the final output).
EQUIVALENCE_TOL = 1e-8


@pytest.fixture(scope="session")
def small_network():
    """A 4x4 grid city (48 directed segments)."""
    return grid_city(4, 4, block_m=200.0, seed=0, name="test-grid")


@pytest.fixture(scope="session")
def ground_truth(small_network):
    """Two days of ground-truth traffic at 30-minute slots."""
    grid = TimeGrid.over_days(2.0, 1800.0)
    return GroundTruthTraffic.synthesize(small_network, grid, seed=1)


@pytest.fixture(scope="session")
def truth_tcm(ground_truth):
    """The complete ground-truth TCM (96 x 48)."""
    return ground_truth.tcm


@pytest.fixture()
def masked_tcm(truth_tcm):
    """A 30 %-integrity measurement TCM derived from the ground truth."""
    mask = random_integrity_mask(truth_tcm.shape, 0.3, seed=2)
    return truth_tcm.with_mask(mask)


@pytest.fixture()
def rng():
    return np.random.default_rng(123)


def make_low_rank(m: int, n: int, rank: int, seed: int = 0, scale: float = 10.0):
    """An exactly rank-``rank`` positive-ish matrix for solver tests."""
    gen = np.random.default_rng(seed)
    left = gen.uniform(0.5, 1.5, size=(m, rank)) * scale / rank
    right = gen.uniform(0.5, 1.5, size=(n, rank))
    return left @ right.T


@pytest.fixture()
def low_rank_matrix():
    """A 40x30 exactly-rank-2 matrix."""
    return make_low_rank(40, 30, rank=2, seed=7)
