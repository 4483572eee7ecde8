"""Tests for the solver-backend registry (repro.core.backends).

Three layers:

* registry units — names, lookup errors, availability hints, dtype
  resolution;
* numerical equivalence — every backend must reproduce the default
  numpy estimate (float64 within the bench tolerance, float32 within
  ``FLOAT32_RTOL`` relative to the reference's magnitude);
* integration — completer/streaming dtype plumbing and the
  ``repro backends`` CLI verb.

The numba and CuPy tests are guarded with ``pytest.importorskip`` so
the default tier-1 run stays green without the optional extras; CI's
jit-extra leg installs numba and runs them for real.
"""

import importlib.util

import numpy as np
import pytest

from repro.cli import main
from repro.core.backends import (
    FLOAT32_RTOL,
    BackendUnavailable,
    SolverBackend,
    available_backend_names,
    backend_names,
    get_backend,
    register_backend,
)
from repro.core.completion import CompressiveSensingCompleter
from repro.core.streaming import StreamingEstimator
from repro.probes.report import ProbeReport

HAVE_NUMBA = importlib.util.find_spec("numba") is not None
HAVE_CUPY = importlib.util.find_spec("cupy") is not None


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


def complete_with(backend, dtype=None, lam=10.0, rank=2, **overrides):
    values, mask = toy_problem()
    params = dict(
        rank=rank,
        lam=lam,
        iterations=30,
        restarts=2,
        seed=7,
        backend=backend,
        dtype=dtype,
    )
    params.update(overrides)
    completer = CompressiveSensingCompleter(**params)
    return completer.complete(values, mask)


@pytest.fixture(scope="module")
def reference_estimate():
    """The default numpy/float64 estimate all backends must reproduce."""
    return complete_with("numpy").estimate


# ----------------------------------------------------------------------
# Registry units
# ----------------------------------------------------------------------
class TestRegistry:
    def test_registration_order_and_names(self):
        assert backend_names() == ("numpy", "numpy-ws", "numba", "cupy")

    def test_builtin_backends_always_available(self):
        names = available_backend_names()
        assert "numpy" in names and "numpy-ws" in names

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown solver backend"):
            get_backend("fortran")

    def test_register_requires_name(self):
        with pytest.raises(ValueError, match="non-empty name"):
            register_backend(SolverBackend())

    def test_availability_matches_find_spec(self):
        assert get_backend("numba").is_available() == HAVE_NUMBA
        assert get_backend("cupy").is_available() == HAVE_CUPY

    def test_availability_hint_names_extra(self):
        assert get_backend("numpy").availability_hint() == "built in"
        hint = get_backend("numba").availability_hint()
        assert "numba" in hint and "repro[jit]" in hint
        hint = get_backend("cupy").availability_hint()
        assert "cupy" in hint and "repro[gpu]" in hint

    def test_resolve_dtype_explicit_wins(self):
        backend = get_backend("numpy-ws")
        resolved = backend.resolve_dtype(np.dtype(np.float32), np.dtype(np.float64))
        assert resolved == np.dtype(np.float32)

    def test_resolve_dtype_honors_float32_input(self):
        backend = get_backend("numpy-ws")
        assert backend.resolve_dtype(None, np.dtype(np.float32)) == np.dtype(
            np.float32
        )

    def test_resolve_dtype_defaults_to_float64(self):
        backend = get_backend("numpy-ws")
        for input_dtype in (np.float64, np.int64, np.float16):
            assert backend.resolve_dtype(None, np.dtype(input_dtype)) == np.dtype(
                np.float64
            )

    def test_resolve_dtype_rejects_unsupported(self):
        backend = get_backend("numpy-ws")
        with pytest.raises(ValueError, match="does not support dtype"):
            backend.resolve_dtype(np.dtype(np.float16), np.dtype(np.float64))


# ----------------------------------------------------------------------
# Completer validation
# ----------------------------------------------------------------------
class TestCompleterValidation:
    def test_unknown_backend_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown solver backend"):
            CompressiveSensingCompleter(rank=2, lam=1.0, backend="fortran")

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba installed; cannot test gating")
    def test_missing_numba_raises_backend_unavailable(self):
        with pytest.raises(BackendUnavailable, match="repro\\[jit\\]"):
            CompressiveSensingCompleter(rank=2, lam=1.0, backend="numba")

    @pytest.mark.skipif(HAVE_CUPY, reason="cupy installed; cannot test gating")
    def test_missing_cupy_raises_backend_unavailable(self):
        with pytest.raises(BackendUnavailable, match="repro\\[gpu\\]"):
            CompressiveSensingCompleter(rank=2, lam=1.0, backend="cupy")

    def test_mask_unaware_requires_numpy_backend(self):
        with pytest.raises(ValueError, match="mask_aware"):
            CompressiveSensingCompleter(
                rank=2, lam=1.0, backend="numpy-ws", mask_aware=False
            )

    def test_solver_choice_requires_numpy_backend(self):
        with pytest.raises(ValueError, match="inner solver"):
            CompressiveSensingCompleter(
                rank=2, lam=1.0, backend="numpy-ws", solver="grouped"
            )

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ValueError, match="does not support dtype"):
            CompressiveSensingCompleter(
                rank=2, lam=1.0, backend="numpy-ws", dtype="float16"
            )


# ----------------------------------------------------------------------
# Numerical equivalence
# ----------------------------------------------------------------------
def assert_float32_close(estimate, reference):
    scale = max(1.0, float(np.abs(reference).max()))
    diff = float(np.abs(estimate.astype(np.float64) - reference).max())
    assert diff <= FLOAT32_RTOL * scale


class TestWorkspaceEquivalence:
    def test_float64_matches_numpy(self, reference_estimate):
        estimate = complete_with("numpy-ws").estimate
        assert estimate.dtype == np.float64
        assert float(np.abs(estimate - reference_estimate).max()) <= 1e-8

    def test_float32_within_documented_tolerance(self, reference_estimate):
        estimate = complete_with("numpy-ws", dtype="float32").estimate
        assert estimate.dtype == np.float32
        assert_float32_close(estimate, reference_estimate)

    def test_float32_input_honored_without_explicit_dtype(self):
        values, mask = toy_problem()
        completer = CompressiveSensingCompleter(
            rank=2, lam=10.0, iterations=20, seed=7, backend="numpy-ws"
        )
        result = completer.complete(values.astype(np.float32), mask)
        assert result.estimate.dtype == np.float32

    def test_rank_one_closed_form(self, reference_estimate):
        a = complete_with("numpy", rank=1).estimate
        b = complete_with("numpy-ws", rank=1).estimate
        assert float(np.abs(a - b).max()) <= 1e-8

    def test_rank_above_two_gesv_fallback(self):
        a = complete_with("numpy", rank=3).estimate
        b = complete_with("numpy-ws", rank=3).estimate
        assert float(np.abs(a - b).max()) <= 1e-8

    def test_lam_zero_all_unobserved_column(self):
        values, mask = toy_problem()
        mask[:, 5] = False  # singular column when lam == 0
        for backend in ("numpy", "numpy-ws"):
            completer = CompressiveSensingCompleter(
                rank=2, lam=0.0, iterations=10, seed=3, backend=backend
            )
            result = completer.complete(values, mask)
            assert np.isfinite(result.estimate).all()
        # Both kernels zero the excluded column's factor rows.
        a = CompressiveSensingCompleter(
            rank=2, lam=0.0, iterations=10, seed=3, backend="numpy"
        ).complete(values, mask)
        b = CompressiveSensingCompleter(
            rank=2, lam=0.0, iterations=10, seed=3, backend="numpy-ws"
        ).complete(values, mask)
        assert float(np.abs(a.estimate - b.estimate).max()) <= 1e-8

    def test_repeat_runs_bit_identical(self):
        # Workspace buffers are reused across sweeps; two fresh runs
        # must still agree to the last bit.
        a = complete_with("numpy-ws").estimate
        b = complete_with("numpy-ws").estimate
        assert a.tobytes() == b.tobytes()

    def test_numpy_backend_supports_float32(self, reference_estimate):
        estimate = complete_with("numpy", dtype="float32").estimate
        assert estimate.dtype == np.float32
        assert_float32_close(estimate, reference_estimate)


class TestOptionalBackends:
    def test_numba_equivalence(self, reference_estimate):
        pytest.importorskip("numba")
        estimate = complete_with("numba").estimate
        assert float(np.abs(estimate - reference_estimate).max()) <= 1e-8
        est32 = complete_with("numba", dtype="float32").estimate
        assert est32.dtype == np.float32
        assert_float32_close(est32, reference_estimate)

    def test_cupy_equivalence(self, reference_estimate):
        pytest.importorskip("cupy")
        estimate = complete_with("cupy").estimate
        assert float(np.abs(estimate - reference_estimate).max()) <= 1e-8

    @pytest.mark.skipif(not HAVE_CUPY, reason="cupy not installed")
    def test_cupy_requires_positive_lam(self):
        with pytest.raises(ValueError, match="lam > 0"):
            complete_with("cupy", lam=0.0)


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
            backend="numpy-ws",
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

    def test_bad_backend_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown solver backend"):
            StreamingEstimator(segment_ids=[0], slot_s=60.0, backend="fortran")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestBackendsCli:
    def test_backends_verb_lists_registry(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("numpy", "numpy-ws", "numba", "cupy"):
            assert name in out
        assert "available" in out

    def test_backends_verbose_shows_hint(self, capsys):
        assert main(["backends", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "repro[jit]" in out or HAVE_NUMBA
