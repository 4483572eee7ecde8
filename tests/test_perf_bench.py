"""Fast tier-1 coverage of the perf-bench harness.

The full smoke profile (Algorithm 1, baselines, GA tuning) lives in
``benchmarks/perf/test_bench_smoke.py`` and runs in the CI perf job;
here we keep the harness importable and correct on a tiny workload so
a refactor cannot silently break ``repro bench``.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.completion import FLOAT32_RTOL
from repro.experiments.perf_bench import (
    EQUIVALENCE_TOL,
    MIN_COMPARE_WALL_S,
    REGRESSION_THRESHOLD,
    BenchCase,
    compare_payloads,
    compare_with_baseline,
    run_perf_bench,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tiny_report():
    return run_perf_bench(
        cases=[BenchCase(30, 12, 0.5)],
        smoke=True,
        iterations=4,
        include_tune=False,
        include_baselines=False,
        include_ingestion=False,
        include_sharded=False,
        include_serving=False,
    )


def test_tiny_case_checks_equivalence(tiny_report):
    # Algorithm 1 is timed in float64 and float32.  Strict mode (the
    # default) raises unless float32 stays within FLOAT32_RTOL of
    # float64 relative to the estimate's magnitude (bench speeds are
    # well under 100 km/h), and the measured difference is recorded.
    assert {r.algorithm for r in tiny_report.records} == {"cs-f64", "cs-f32"}
    key = "30x12@0.50/f32"
    assert tiny_report.equivalence_max_abs_diff[key] <= FLOAT32_RTOL * 100.0
    assert tiny_report.speedups[key] > 0.0


def test_json_payload_schema(tiny_report, tmp_path):
    out = tiny_report.write_json(tmp_path / "bench.json")
    payload = json.loads(out.read_text())
    assert payload["schema"] == 6
    assert payload["equivalence_tol"] == EQUIVALENCE_TOL
    assert len(payload["records"]) == 2
    assert all("backend" not in rec for rec in payload["records"])


def test_ingestion_suite_records_and_equivalence():
    report = run_perf_bench(
        cases=[],
        smoke=True,
        include_tune=False,
        include_baselines=False,
        ingestion_reports=2_000,
    )
    algorithms = {r.algorithm for r in report.records}
    assert {
        "mapmatch-vectorized",
        "mapmatch-scalar",
        "aggregate-bincount",
        "aggregate-scalar",
    } <= algorithms
    case = "ingest-2k"
    assert report.equivalence_max_abs_diff[f"{case}-mapmatch"] == 0.0
    assert report.equivalence_max_abs_diff[f"{case}-aggregate"] <= EQUIVALENCE_TOL
    for key in ("mapmatch", "aggregate", "pipeline"):
        assert report.speedups[f"{case}-{key}"] > 0.0
    assert 0.0 < report.meta[f"{case}-match-rate"] <= 1.0


# ----------------------------------------------------------------------
# Baseline comparison (repro bench --compare)
# ----------------------------------------------------------------------
def _payload(records):
    return {
        "schema": 2,
        "records": [
            {"case": c, "algorithm": a, "wall_s": w, "repeats": 1}
            for c, a, w in records
        ],
    }


def test_compare_identical_payloads_is_ok():
    payload = _payload([("672x221@0.20", "cs-f64", 0.5)])
    result = compare_payloads(payload, payload)
    assert result.ok
    assert result.compared == 1
    assert result.skipped == 0
    assert "no regressions" in result.render()


def test_compare_flags_regression_beyond_threshold():
    base = _payload([("672x221@0.20", "cs-f64", 0.5)])
    cur = _payload([("672x221@0.20", "cs-f64", 0.5 * 2.0)])
    result = compare_payloads(cur, base)
    assert not result.ok
    assert len(result.regressions) == 1
    assert "REGRESSIONS" in result.render()


def test_compare_tolerates_growth_below_threshold():
    base = _payload([("672x221@0.20", "cs-f64", 0.5)])
    cur = _payload(
        [("672x221@0.20", "cs-f64", 0.5 * (REGRESSION_THRESHOLD - 0.1))]
    )
    assert compare_payloads(cur, base).ok


def test_compare_skips_sub_noise_floor_records():
    wall = MIN_COMPARE_WALL_S / 10.0
    base = _payload([("tiny", "cs-f64", wall)])
    # Both runs below the floor: skipped, not compared.
    result = compare_payloads(_payload([("tiny", "cs-f64", wall)]), base)
    assert result.skipped == 1 and result.compared == 0
    # Current above the floor: compared (and a regression).
    cur = _payload([("tiny", "cs-f64", wall * 100.0)])
    result = compare_payloads(cur, base)
    assert result.compared == 1 and not result.ok


def test_compare_ignores_unmatched_records():
    base = _payload([("672x221@0.20", "cs-f64", 0.5)])
    cur = _payload([("ingest-120k", "mapmatch-vectorized", 2.0)])
    result = compare_payloads(cur, base)
    assert result.ok and result.compared == 0


def test_compare_accepts_schema2_baseline_as_numpy_backend():
    # A schema-2 baseline has no backend field; its records must match
    # schema-3 records carrying the default "numpy" backend.
    base = _payload([("672x221@0.20", "cs-f64", 0.5)])
    cur = {
        "schema": 3,
        "records": [
            {
                "case": "672x221@0.20",
                "algorithm": "cs-f64",
                "wall_s": 1.2,
                "repeats": 1,
                "backend": "numpy",
            }
        ],
    }
    result = compare_payloads(cur, base)
    assert result.compared == 1 and not result.ok


def test_compare_matches_legacy_backend_records():
    # Schema 3-5 baselines timed the workspace kernel as backend
    # "numpy-ws"; schema-6 records (no backend field) match them on
    # (case, algorithm).
    base = {
        "schema": 5,
        "records": [
            {
                "case": "672x221@0.20",
                "algorithm": "cs-f32",
                "wall_s": 0.5,
                "repeats": 1,
                "backend": "numpy-ws",
            }
        ],
    }
    cur = _payload([("672x221@0.20", "cs-f32", 50.0)])
    result = compare_payloads(cur, base)
    assert result.compared == 1 and not result.ok


def test_compare_reads_committed_baselines():
    # Every committed BENCH artifact must stay readable by --compare,
    # and its Algorithm 1 rows must match themselves.
    paths = sorted(REPO_ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        payload = json.loads(path.read_text())
        result = compare_payloads(payload, payload)
        assert result.ok and result.compared > 0


def test_compare_rejects_bad_threshold():
    payload = _payload([("672x221@0.20", "cs-f64", 0.5)])
    with pytest.raises(ValueError, match="threshold"):
        compare_payloads(payload, payload, threshold=1.0)


def test_compare_with_baseline_reads_json(tiny_report, tmp_path):
    baseline = tiny_report.write_json(tmp_path / "baseline.json")
    result = compare_with_baseline(tiny_report, baseline)
    assert result.ok


def test_cli_bench_smoke_writes_json(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["bench", "--smoke", "--output", "out.json"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "speedup" in captured
    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["meta"]["smoke"] is True

    # Comparing a fresh run against a baseline 100x faster must trip
    # the regression gate and exit non-zero.
    doctored = dict(payload)
    doctored["records"] = [
        {**rec, "wall_s": rec["wall_s"] / 100.0} for rec in payload["records"]
    ]
    (tmp_path / "fast_baseline.json").write_text(json.dumps(doctored))
    code = main(
        [
            "bench",
            "--smoke",
            "--output",
            "out2.json",
            "--compare",
            "fast_baseline.json",
        ]
    )
    assert code == 1
    assert "REGRESSIONS" in capsys.readouterr().out
