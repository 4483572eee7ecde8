"""The serving-load benchmark (``repro bench --suite serving``).

Tier-1 coverage on a tiny workload: the request streams are seeded and
deterministic, every (app, level) pair produces one result with sane
latency/throughput numbers, the world builds from config or loads from
an attached store, and the records land in schema-5 bench payloads the
``--compare`` gate can diff on p95.
"""

import json

import pytest

from repro.experiments.perf_bench import (
    MIN_COMPARE_P95_MS,
    compare_payloads,
    run_perf_bench,
)
from repro.experiments.serving_bench import (
    SERVING_APPS,
    ServingBenchConfig,
    build_serving_world,
    default_serving_config,
    run_serving_bench,
)
from repro.experiments.store import ArtifactStore


TINY = ServingBenchConfig(
    rows=3,
    cols=3,
    days=0.25,
    concurrency_levels=(1, 2),
    requests_per_level=8,
    iterations=4,
)


def test_default_config_profiles():
    smoke = default_serving_config(smoke=True, seed=7)
    full = default_serving_config(seed=7)
    assert smoke.requests_per_level < full.requests_per_level
    assert len(smoke.concurrency_levels) >= 3
    assert len(full.concurrency_levels) >= 3
    assert smoke.seed == full.seed == 7


def test_run_covers_every_app_and_level():
    results = run_serving_bench(TINY)
    assert len(results) == len(SERVING_APPS) * len(TINY.concurrency_levels)
    seen = {(r.app, r.concurrency) for r in results}
    assert seen == {
        (app, level)
        for app in SERVING_APPS
        for level in TINY.concurrency_levels
    }
    for r in results:
        assert r.requests == TINY.requests_per_level
        assert r.wall_s > 0.0
        assert 0.0 <= r.p50_ms <= r.p95_ms
        assert r.throughput_rps > 0.0


def test_prebuilt_world_short_circuits_the_build():
    world = build_serving_world(TINY)
    network, tcm = world
    assert tcm.values.shape[0] == len(network.segment_ids)
    results = run_serving_bench(TINY, world=world)
    assert {r.app for r in results} == set(SERVING_APPS)


def test_rejects_degenerate_concurrency():
    with pytest.raises(ValueError, match="at least one"):
        run_serving_bench(
            ServingBenchConfig(concurrency_levels=()), world=None
        )
    with pytest.raises(ValueError, match=">= 1"):
        run_serving_bench(ServingBenchConfig(concurrency_levels=(0,)))


def test_bench_report_serving_records(tmp_path):
    report = run_perf_bench(
        cases=[],
        smoke=True,
        include_tune=False,
        include_baselines=False,
        include_ingestion=False,
        include_sharded=False,
        include_serving=True,
    )
    serving = [r for r in report.records if r.case.startswith("serving-")]
    smoke_cfg = default_serving_config(smoke=True)
    assert len(serving) == len(SERVING_APPS) * len(smoke_cfg.concurrency_levels)
    for rec in serving:
        assert rec.p50_ms is not None and rec.p95_ms is not None
        assert rec.throughput_rps is not None and rec.throughput_rps > 0.0
        assert rec.algorithm.startswith("c")
    assert report.serving["apps"] == sorted(SERVING_APPS)
    peaks = report.serving["peak_throughput_rps"]
    assert set(peaks) == set(SERVING_APPS)
    assert all(rps > 0.0 for rps in peaks.values())
    payload = json.loads(report.write_json(tmp_path / "bench.json").read_text())
    assert payload["schema"] == 6
    assert payload["serving"]["apps"] == sorted(SERVING_APPS)
    rec = next(
        r for r in payload["records"] if r["case"].startswith("serving-")
    )
    assert "p95_ms" in rec and "throughput_rps" in rec


def test_bench_serving_world_loads_from_store(tmp_path):
    store = ArtifactStore(root=tmp_path / "store")
    first = run_perf_bench(
        cases=[],
        smoke=True,
        include_tune=False,
        include_baselines=False,
        include_ingestion=False,
        include_sharded=False,
        serving_store=store,
    )
    assert first.serving["world"]["store_hit"] is False
    second = run_perf_bench(
        cases=[],
        smoke=True,
        include_tune=False,
        include_baselines=False,
        include_ingestion=False,
        include_sharded=False,
        serving_store=ArtifactStore(root=tmp_path / "store"),
    )
    assert second.serving["world"]["store_hit"] is True


def _serving_payload(p95_ms, wall_s=0.001):
    return {
        "schema": 5,
        "records": [
            {
                "case": "serving-travel_time",
                "algorithm": "c04",
                "wall_s": wall_s,
                "repeats": 1,
                "backend": "numpy",
                "p95_ms": p95_ms,
            }
        ],
    }


def test_compare_gates_on_p95_even_below_wall_noise_floor():
    base = _serving_payload(p95_ms=MIN_COMPARE_P95_MS * 2)
    cur = _serving_payload(p95_ms=MIN_COMPARE_P95_MS * 4)
    result = compare_payloads(cur, base)
    assert not result.ok
    assert "p95" in result.render()


def test_compare_ignores_sub_floor_p95():
    base = _serving_payload(p95_ms=MIN_COMPARE_P95_MS / 10)
    cur = _serving_payload(p95_ms=MIN_COMPARE_P95_MS / 4)
    assert compare_payloads(cur, base).ok


def test_compare_tolerates_p95_growth_below_threshold():
    base = _serving_payload(p95_ms=MIN_COMPARE_P95_MS * 2)
    cur = _serving_payload(p95_ms=MIN_COMPARE_P95_MS * 2 * 1.2)
    assert compare_payloads(cur, base).ok
