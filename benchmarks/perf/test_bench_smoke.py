"""Smoke tests for the micro-kernel benchmark harness.

These keep ``repro bench --smoke`` honest in CI: the harness must run
in seconds, emit the documented JSON schema, and enforce the
float32-vs-float64 Algorithm 1 bound.
"""

import json

import pytest

from repro.core.completion import FLOAT32_RTOL
from repro.experiments.perf_bench import (
    BenchCase,
    default_cases,
    default_output_name,
    run_perf_bench,
)


@pytest.fixture(scope="module")
def smoke_report():
    return run_perf_bench(smoke=True, seed=0)


def test_smoke_profile_times_all_algorithms(smoke_report):
    algorithms = {r.algorithm for r in smoke_report.records}
    assert algorithms == {
        "cs-f64",
        "cs-f32",
        "naive-knn",
        "correlation-knn",
        "mssa",
        "ga-tune",
    }
    assert all(r.wall_s >= 0.0 for r in smoke_report.records)


def test_smoke_profile_checks_equivalence(smoke_report):
    # Every case, the sparse-layout one included.  Strict mode raised
    # already if float32 departed beyond its relative bound; bench
    # speeds are well under 100 km/h.
    for case in default_cases(smoke=True):
        key = f"{case.name}/f32"
        assert smoke_report.equivalence_max_abs_diff[key] <= FLOAT32_RTOL * 100.0
        assert smoke_report.speedups[key] > 0.0


def test_payload_schema_roundtrips(smoke_report, tmp_path):
    out = smoke_report.write_json(tmp_path / "bench.json")
    payload = json.loads(out.read_text())
    assert payload["schema"] == 7
    assert payload["float32_rtol"] == FLOAT32_RTOL
    assert payload["meta"]["smoke"] is True
    assert not {"sharded", "serving"} & set(payload)
    fields = {"case", "algorithm", "wall_s", "repeats"}
    serving = {"p50_ms", "p95_ms", "throughput_rps"}
    for record in payload["records"]:
        assert fields <= set(record)
        assert not (serving | {"backend"}) & set(record)


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
