"""Fast tier-1 coverage of the micro-kernel bench harness.

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
from repro.experiments import perf_bench
from repro.experiments.perf_bench import (
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
    assert payload["schema"] == 7
    assert payload["float32_rtol"] == FLOAT32_RTOL
    assert not {"sharded", "serving", "equivalence_tol"} & set(payload)
    assert len(payload["records"]) == 2
    for rec in payload["records"]:
        assert not {"backend", "p50_ms", "p95_ms", "throughput_rps"} & set(rec)


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
    assert result.refusal is None
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
    # Both runs below the floor: skipped, not compared, so refused.
    result = compare_payloads(_payload([("tiny", "cs-f64", wall)]), base)
    assert result.skipped == 1 and result.compared == 0
    assert "no record was compared" in result.refusal
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
        assert result.refusal is None


def test_compare_rejects_bad_threshold():
    payload = _payload([("672x221@0.20", "cs-f64", 0.5)])
    with pytest.raises(ValueError, match="threshold"):
        compare_payloads(payload, payload, threshold=1.0)


def test_compare_with_baseline_reads_json(tiny_report, tmp_path):
    baseline = tiny_report.write_json(tmp_path / "baseline.json")
    result = compare_with_baseline(tiny_report, baseline)
    assert result.ok


def _smoke_payload(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["bench", "--smoke", "--output", "out.json"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "speedup" in captured
    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["meta"]["smoke"] is True
    return payload


def _compare_against(tmp_path, baseline):
    (tmp_path / "baseline.json").write_text(json.dumps(baseline))
    return main(
        ["bench", "--smoke", "--output", "out2.json", "--compare", "baseline.json"]
    )


def _faster(payload, factor=100.0):
    return {
        **payload,
        "records": [
            {**rec, "wall_s": rec["wall_s"] / factor} for rec in payload["records"]
        ],
    }


def test_cli_bench_smoke_writes_json(tmp_path, capsys, monkeypatch):
    payload = _smoke_payload(tmp_path, monkeypatch, capsys)
    # Comparing a fresh run against a baseline 100x faster must trip
    # the regression gate and exit 1.  Every smoke record runs in well
    # under the noise floor, so the floor is lowered to compare them.
    monkeypatch.setattr(perf_bench, "MIN_COMPARE_WALL_S", 0.0)
    assert _compare_against(tmp_path, _faster(payload)) == 1
    assert "REGRESSIONS" in capsys.readouterr().out


def test_cli_bench_compare_refuses_cpu_count_mismatch(tmp_path, capsys, monkeypatch):
    payload = _smoke_payload(tmp_path, monkeypatch, capsys)
    monkeypatch.setattr(perf_bench, "MIN_COMPARE_WALL_S", 0.0)
    cpus = payload["meta"]["cpu_count"]
    other = {**_faster(payload), "meta": {**payload["meta"], "cpu_count": cpus + 1}}
    assert _compare_against(tmp_path, other) == 2
    captured = capsys.readouterr()
    assert "cpu_count differs" in captured.err
    assert "REGRESSIONS" not in captured.out


def test_cli_bench_compare_refuses_empty_comparison(tmp_path, capsys, monkeypatch):
    # A baseline sharing no (case, algorithm) pair with the run compares
    # nothing, so even a 100x regression would pass as "no regressions".
    payload = _smoke_payload(tmp_path, monkeypatch, capsys)
    monkeypatch.setattr(perf_bench, "MIN_COMPARE_WALL_S", 0.0)
    faster = _faster(payload)
    other = {**faster, "records": [{**rec, "case": "other"} for rec in faster["records"]]}
    assert _compare_against(tmp_path, other) == 2
    captured = capsys.readouterr()
    assert "no record was compared" in captured.err
    assert "no regressions" not in captured.out
