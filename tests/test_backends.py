"""Tests for Algorithm 1's working-dtype policy and float32 path.

Three layers:

* dtype units — :func:`repro.core.completion.resolve_dtype` and its
  construction-time validation;
* numerical equivalence — the float64 completer must reproduce the
  per-column reference ALS (``tests/solver_oracles.py``) within the
  bench tolerance on the kernel's closed-form (rank <= 2) and ``gesv``
  (rank > 2) paths, and float32 must stay within ``FLOAT32_RTOL``
  relative to the reference's magnitude;
* integration — float32 warm factors across streaming windows.
"""

import numpy as np
import pytest

from repro.core.completion import (
    FLOAT32_RTOL,
    CompressiveSensingCompleter,
    resolve_dtype,
)
from repro.core.streaming import StreamingEstimator
from repro.probes.report import ProbeReport
from tests.solver_oracles import als_reference

ITERATIONS = 30


def toy_problem(seed=0, shape=(40, 24), density=0.45):
    rng = np.random.default_rng(seed)
    m, n = shape
    left = rng.uniform(0.5, 1.5, size=(m, 2))
    right = rng.uniform(0.5, 1.5, size=(n, 2))
    values = left @ right.T * 25.0 + rng.normal(0.0, 0.4, size=(m, n))
    mask = rng.random((m, n)) < density
    mask[0, :] = True
    mask[:, 0] = True
    return values, mask


def complete_with(dtype=None, lam=10.0, rank=2, **overrides):
    values, mask = toy_problem()
    params = dict(rank=rank, lam=lam, iterations=ITERATIONS, seed=7, dtype=dtype)
    params.update(overrides)
    return CompressiveSensingCompleter(**params).complete(values, mask)


def oracle(lam=10.0, rank=2):
    values, mask = toy_problem()
    return als_reference(values, mask, rank, lam, ITERATIONS, seed=7)[0]


@pytest.fixture(scope="module")
def reference_estimate():
    """The float64 reference estimate the kernel must reproduce."""
    return oracle()


# ----------------------------------------------------------------------
# dtype policy
# ----------------------------------------------------------------------
class TestRegistry:
    def test_resolve_dtype_explicit_wins(self):
        resolved = resolve_dtype(np.dtype(np.float32), np.dtype(np.float64))
        assert resolved == np.dtype(np.float32)

    def test_resolve_dtype_honors_float32_input(self):
        assert resolve_dtype(None, np.dtype(np.float32)) == np.dtype(np.float32)

    def test_resolve_dtype_defaults_to_float64(self):
        for input_dtype in (np.float64, np.int64, np.float16):
            assert resolve_dtype(None, np.dtype(input_dtype)) == np.dtype(
                np.float64
            )

    def test_resolve_dtype_rejects_unsupported(self):
        with pytest.raises(ValueError, match="does not support dtype"):
            resolve_dtype(np.dtype(np.float16), np.dtype(np.float64))


class TestCompleterValidation:
    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ValueError, match="does not support dtype"):
            CompressiveSensingCompleter(rank=2, lam=1.0, dtype="float16")


# ----------------------------------------------------------------------
# Numerical equivalence
# ----------------------------------------------------------------------
def assert_float32_close(estimate, reference):
    scale = max(1.0, float(np.abs(reference).max()))
    diff = float(np.abs(estimate.astype(np.float64) - reference).max())
    assert diff <= FLOAT32_RTOL * scale


class TestWorkspaceEquivalence:
    def test_float64_matches_numpy(self, reference_estimate):
        estimate = complete_with().estimate
        assert estimate.dtype == np.float64
        assert float(np.abs(estimate - reference_estimate).max()) <= 1e-8

    def test_float32_within_documented_tolerance(self, reference_estimate):
        estimate = complete_with(dtype="float32").estimate
        assert estimate.dtype == np.float32
        assert_float32_close(estimate, reference_estimate)

    def test_float32_input_honored_without_explicit_dtype(self):
        values, mask = toy_problem()
        completer = CompressiveSensingCompleter(
            rank=2, lam=10.0, iterations=20, seed=7
        )
        result = completer.complete(values.astype(np.float32), mask)
        assert result.estimate.dtype == np.float32

    def test_rank_one_closed_form(self):
        estimate = complete_with(rank=1).estimate
        assert float(np.abs(estimate - oracle(rank=1)).max()) <= 1e-8

    def test_rank_above_two_gesv_fallback(self):
        estimate = complete_with(rank=3).estimate
        assert float(np.abs(estimate - oracle(rank=3)).max()) <= 1e-8

    def test_lam_zero_all_unobserved_column(self):
        values, mask = toy_problem()
        mask[:, 5] = False  # singular column when lam == 0
        mask[7, :] = False  # and a singular row
        result = CompressiveSensingCompleter(
            rank=2, lam=0.0, iterations=10, seed=3
        ).complete(values, mask)
        assert np.isfinite(result.estimate).all()
        # The excluded systems' factor rows are zero, as in the oracle.
        assert not result.right[5].any() and not result.left[7].any()
        reference, _, _ = als_reference(values, mask, 2, 0.0, 10, seed=3)
        assert float(np.abs(result.estimate - reference).max()) <= 1e-8

    def test_repeat_runs_bit_identical(self):
        # Workspace buffers are reused across sweeps; two fresh runs
        # must still agree to the last bit.
        a = complete_with(restarts=2).estimate
        b = complete_with(restarts=2).estimate
        assert a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# Streaming warm-start dtype retention
# ----------------------------------------------------------------------
def _probe(t, seg, speed):
    return ProbeReport(
        vehicle_id=0, time_s=t, x=0.0, y=0.0, speed_kmh=speed, segment_id=seg
    )


class TestStreamingDtype:
    def test_warm_factor_stays_float32_across_windows(self):
        est = StreamingEstimator(
            segment_ids=[0, 1, 2],
            slot_s=60.0,
            window_slots=4,
            rank=1,
            lam=1.0,
            cold_iterations=10,
            warm_iterations=4,
            dtype="float32",
            seed=0,
        )
        for k in range(6):
            t = k * 60.0
            est.ingest(_probe(t + 5, 0, 30.0))
            est.ingest(_probe(t + 10, 1, 30.0))
        est.flush()
        warm_left = est._window._warm_left
        assert warm_left is not None
        assert warm_left.dtype == np.float32
        assert est.estimates and np.isfinite(est.estimates[-1].speeds_kmh).all()

    def test_bad_dtype_fails_at_construction(self):
        with pytest.raises(ValueError, match="does not support dtype"):
            StreamingEstimator(segment_ids=[0], slot_s=60.0, dtype="int32")
