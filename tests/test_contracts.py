"""Tests for the runtime array-contract layer (repro.utils.contracts)."""

import numpy as np
import pytest

from repro.core.completion import CompressiveSensingCompleter
from repro.core.eigenflows import analyze_eigenflows
from repro.core.tcm import TrafficConditionMatrix
from repro.scale import ShardedEstimator
from repro.utils.contracts import (
    ContractError,
    contracts_enabled,
    set_enabled,
    shapes,
)


@pytest.fixture
def checked():
    """Force contracts on for the test, restoring env-following after."""
    set_enabled(True)
    yield
    set_enabled(None)


@shapes("m n", "n r", "r")
def _fake_matmul(a, b, scale):
    return a @ (b * scale[None, :])


@shapes("m n:float", "m n:bool", finite=("values",))
def _fake_masked(values, mask):
    return values[mask]


class TestToggle:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        assert not contracts_enabled()

    def test_env_var_enables(self, monkeypatch):
        for value in ("1", "true", "YES", " on "):
            monkeypatch.setenv("REPRO_CHECK", value)
            assert contracts_enabled()
        monkeypatch.setenv("REPRO_CHECK", "0")
        assert not contracts_enabled()

    def test_set_enabled_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        set_enabled(False)
        try:
            assert not contracts_enabled()
        finally:
            set_enabled(None)
        assert contracts_enabled()

    def test_no_checks_when_disabled(self):
        set_enabled(False)
        try:
            # Contract violations (NaN values) pass through untouched.
            values = np.array([[1.0, np.nan]])
            out = _fake_masked(values, np.ones((1, 2), dtype=bool))
            assert out.shape == (2,)
        finally:
            set_enabled(None)


class TestShapeSpecs:
    def test_consistent_dims_pass(self, checked):
        out = _fake_matmul(np.ones((4, 3)), np.ones((3, 2)), np.ones(2))
        assert out.shape == (4, 2)

    def test_rank_mismatch(self, checked):
        with pytest.raises(ContractError, match="must be 2-D"):
            _fake_matmul(np.ones(4), np.ones((3, 2)), np.ones(2))

    def test_dim_binding_conflict(self, checked):
        with pytest.raises(ContractError, match="dim 'r'"):
            _fake_matmul(np.ones((4, 3)), np.ones((3, 2)), np.ones(5))

    def test_dtype_family_float_rejects_strings(self, checked):
        with pytest.raises(ContractError, match="family"):
            _fake_masked(np.array([["a", "b"]]), np.ones((1, 2), dtype=bool))

    def test_dtype_family_bool_accepts_int_indicator(self, checked):
        values = np.ones((2, 2))
        mask = np.array([[1, 0], [0, 1]])
        # An int 0/1 indicator satisfies the "bool" dtype family; the
        # fancy-indexed result shape is numpy semantics, not under test.
        _fake_masked(values, mask)

    def test_finite_policy(self, checked):
        values = np.array([[1.0, np.nan]])
        with pytest.raises(ContractError, match="non-finite"):
            _fake_masked(values, np.ones((1, 2), dtype=bool))

    def test_none_arguments_skipped(self, checked):
        @shapes("m n", "m n")
        def f(a, b=None):
            return a

        assert f(np.ones((2, 2))).shape == (2, 2)

    def test_exact_and_wildcard_dims(self, checked):
        @shapes("* 3")
        def f(a):
            return a

        assert f(np.ones((7, 3))).shape == (7, 3)
        with pytest.raises(ContractError, match="size 3"):
            f(np.ones((7, 4)))

    def test_keyword_specs_and_call_styles(self, checked):
        @shapes(b="k")
        def f(a, b):
            return b

        assert f(1, b=np.ones(3)).shape == (3,)
        with pytest.raises(ContractError, match="1-D"):
            f(1, b=np.ones((3, 3)))

    def test_instance_spec(self, checked):
        class Payload:
            pass

        @shapes(Payload)
        def f(p):
            return p

        assert isinstance(f(Payload()), Payload)
        with pytest.raises(ContractError, match="must be Payload"):
            f(object())


class TestSpecValidationAtDecoration:
    def test_too_many_specs(self):
        with pytest.raises(ValueError, match="specs for"):

            @shapes("m", "n")
            def f(a):
                return a

    def test_unknown_keyword_spec(self):
        with pytest.raises(ValueError, match="no parameter named"):

            @shapes(b="m")
            def f(a):
                return a

    def test_unknown_finite_name(self):
        with pytest.raises(ValueError, match="finite names unknown"):

            @shapes("m", finite=("b",))
            def f(a):
                return a

    def test_bad_dim_token(self):
        with pytest.raises(ValueError, match="bad dim token"):

            @shapes("m$")
            def f(a):
                return a

    def test_bad_dtype_family(self):
        with pytest.raises(ValueError, match="unknown dtype family"):

            @shapes("m:quaternion")
            def f(a):
                return a


class TestCoreEntryPoints:
    def test_completer_rejects_mismatched_mask(self, checked):
        completer = CompressiveSensingCompleter(iterations=2, seed=0)
        with pytest.raises(ContractError, match="dim"):
            completer.complete(np.zeros((4, 3)), np.ones((3, 4), dtype=bool))

    def test_completer_accepts_tcm_input(self, checked):
        rng = np.random.default_rng(0)
        x = rng.normal(30.0, 5.0, (12, 6))
        mask = rng.random((12, 6)) < 0.7
        tcm = TrafficConditionMatrix(np.where(mask, x, 0.0), mask)
        result = CompressiveSensingCompleter(iterations=3, seed=0).complete(tcm)
        assert result.estimate.shape == (12, 6)

    def test_tcm_rejects_wrong_rank(self, checked):
        with pytest.raises(ContractError, match="2-D"):
            TrafficConditionMatrix(np.zeros(5))

    def test_eigenflows_reject_nan(self, checked):
        bad = np.array([[1.0, np.nan], [2.0, 3.0]])
        with pytest.raises(ContractError, match="non-finite"):
            analyze_eigenflows(bad)

    def test_estimator_rejects_raw_array(self, checked):
        estimator = ShardedEstimator(
            [0, 1, 2], partitioner="single", iterations=2, seed=0
        )
        with pytest.raises(ContractError, match="TrafficConditionMatrix"):
            estimator.estimate(np.zeros((4, 3)))

    @pytest.mark.parametrize(
        "baseline",
        ["NaiveKNN", "CorrelationKNN", "MSSA", "HistoricalMean", "LinearInterpolation"],
    )
    def test_baselines_reject_shape_mismatch(self, checked, baseline):
        import repro.baselines as baselines

        algo = getattr(baselines, baseline)()
        with pytest.raises(ContractError, match="dim"):
            algo.complete(np.zeros((4, 3)), np.ones((3, 4), dtype=bool))

    @pytest.mark.parametrize(
        "baseline",
        ["NaiveKNN", "CorrelationKNN", "MSSA", "HistoricalMean", "LinearInterpolation"],
    )
    def test_baselines_reject_nonfinite_values(self, checked, baseline):
        import repro.baselines as baselines

        algo = getattr(baselines, baseline)()
        values = np.full((6, 4), np.nan)
        mask = np.zeros((6, 4), dtype=bool)
        with pytest.raises(ContractError, match="non-finite"):
            algo.complete(values, mask)


class TestMetadataPreserved:
    def test_wraps_keeps_name_and_doc(self):
        assert _fake_matmul.__name__ == "_fake_matmul"
        completer = CompressiveSensingCompleter(iterations=2, seed=0)
        assert "Algorithm 1" in (completer.complete.__doc__ or "")
