"""Smoke tests for the performance benchmark harness.

These keep ``repro bench --smoke`` honest in CI: the harness must run
in seconds, emit the documented JSON schema, and enforce the
float32-vs-float64 Algorithm 1 bound and the vectorized-vs-scalar
equivalence bound.
"""

import json

import pytest

from repro.core.completion import FLOAT32_RTOL
from repro.experiments.perf_bench import (
    EQUIVALENCE_TOL,
    BenchCase,
    default_cases,
    default_ingestion_reports,
    default_output_name,
    run_perf_bench,
)


@pytest.fixture(scope="module")
def smoke_report():
    return run_perf_bench(smoke=True, seed=0)


def test_smoke_profile_times_all_algorithms(smoke_report):
    algorithms = {r.algorithm for r in smoke_report.records}
    assert {"cs-f64", "cs-f32"} <= algorithms
    assert {"naive-knn", "correlation-knn", "ga-tune"} <= algorithms
    assert {"mapmatch-vectorized", "aggregate-bincount"} <= algorithms
    assert {"cs-monolithic", "cs-sharded", "sharded-stream-ingest"} <= algorithms
    assert all(r.wall_s >= 0.0 for r in smoke_report.records)


def test_smoke_profile_checks_equivalence(smoke_report):
    key = f"{default_cases(smoke=True)[0].name}/f32"
    # Strict mode raised already if float32 departed beyond its
    # relative bound; bench speeds are well under 100 km/h.
    assert smoke_report.equivalence_max_abs_diff[key] <= FLOAT32_RTOL * 100.0
    assert smoke_report.speedups[key] > 0.0


def test_smoke_profile_checks_ingestion_equivalence(smoke_report):
    case = f"ingest-{default_ingestion_reports(smoke=True) // 1000}k"
    assert smoke_report.equivalence_max_abs_diff[f"{case}-mapmatch"] == 0.0
    assert (
        smoke_report.equivalence_max_abs_diff[f"{case}-aggregate"]
        <= EQUIVALENCE_TOL
    )
    assert smoke_report.speedups[f"{case}-pipeline"] > 0.0


def test_smoke_profile_checks_baseline_equivalence(smoke_report):
    case = default_cases(smoke=True)[0]
    for name in ("correlation-knn", "mssa"):
        key = f"{case.name}-{name}"
        assert smoke_report.equivalence_max_abs_diff[key] <= EQUIVALENCE_TOL


def test_payload_schema_roundtrips(smoke_report, tmp_path):
    out = smoke_report.write_json(tmp_path / "bench.json")
    payload = json.loads(out.read_text())
    assert payload["schema"] == 6
    assert payload["equivalence_tol"] == EQUIVALENCE_TOL
    assert payload["meta"]["smoke"] is True
    fields = {"case", "algorithm", "wall_s", "repeats"}
    serving = {"p50_ms", "p95_ms", "throughput_rps"}
    for record in payload["records"]:
        assert fields | serving <= set(record)
        assert "backend" not in record
    assert any(record["p95_ms"] is not None for record in payload["records"])


def test_render_mentions_speedup(smoke_report):
    text = smoke_report.render()
    assert "Performance benchmark" in text
    assert "speedup" in text


def test_strict_mode_rejects_disagreeing_solvers(monkeypatch):
    # Force an artificial float32-vs-float64 disagreement by lowering
    # the tolerance to an impossible level through the module constant.
    import repro.experiments.perf_bench as pb

    monkeypatch.setattr(pb, "FLOAT32_RTOL", -1.0)
    cases = [BenchCase(24, 10, 0.5)]
    with pytest.raises(RuntimeError, match="deviates from the float64 estimate"):
        pb.run_perf_bench(
            cases=cases,
            smoke=True,
            iterations=3,
            include_tune=False,
            include_baselines=False,
        )
    # Non-strict mode records the diff instead of raising.
    report = pb.run_perf_bench(
        cases=cases,
        smoke=True,
        iterations=3,
        include_tune=False,
        include_baselines=False,
        strict=False,
    )
    assert f"{cases[0].name}/f32" in report.equivalence_max_abs_diff


def test_default_output_name_is_dated():
    assert default_output_name().startswith("BENCH_")
    assert default_output_name().endswith(".json")
