"""Tests for repro.analysis.determinism (serial == parallel harness)."""

import pytest

from repro.analysis.determinism import (
    CHECKS,
    DeterminismCheck,
    DeterminismReport,
    WALL_CLOCK_JOBS,
    check_sharded,
    check_tuning,
    run_determinism_suite,
)


class TestReportShape:
    def test_render_and_ok(self):
        good = DeterminismCheck(name="a", ok=True, detail="d", elapsed_s=0.1)
        bad = DeterminismCheck(name="b", ok=False, detail="x", elapsed_s=0.2)
        assert DeterminismReport(checks=[good]).ok
        assert not DeterminismReport(checks=[good, bad]).ok
        rendered = DeterminismReport(checks=[good, bad]).render()
        assert "MISMATCH" in rendered
        assert "DETERMINISM VIOLATION" in rendered
        assert "bit-identical" in DeterminismReport(checks=[good]).render()

    def test_unknown_check_rejected(self):
        with pytest.raises(KeyError):
            run_determinism_suite(checks=["nope"], smoke=True)

    def test_check_names(self):
        assert set(CHECKS) == {"tuning", "sharded", "run-all"}
        assert set(WALL_CLOCK_JOBS) == {"runtimes", "streaming"}


class TestSmokeChecks:
    def test_tuning_bit_identical(self):
        check = check_tuning(seed=0, max_workers=2, smoke=True)
        assert check.ok, check.detail

    def test_sharded_bit_identical(self):
        check = check_sharded(seed=0, max_workers=2, smoke=True)
        assert check.ok, check.detail
        assert "exact + multilevel" in check.detail
        assert "(dense)" in check.detail and "(sparse)" in check.detail

    def test_suite_subset(self):
        report = run_determinism_suite(
            checks=["tuning", "sharded"], smoke=True, max_workers=2
        )
        assert report.ok
        assert [c.name for c in report.checks] == ["tuning", "sharded"]


@pytest.mark.slow
class TestRunAllCheck:
    def test_run_all_bit_identical(self):
        from repro.analysis.determinism import check_run_all

        check = check_run_all(seed=0, max_workers=2, smoke=True)
        assert check.ok, check.detail
        assert "wall-clock studies excluded" in check.detail
