"""Gate tests for the metropolitan sharded benchmark suite.

Two layers:

* run the sharded suite standalone in its smoke profile and check the
  record/summary schema (fast, every CI run);
* read the newest committed ``BENCH_<date>.json`` and hold the ISSUE's
  acceptance line against it — the full-profile sharded completion must
  beat the monolithic solve by >= 3x with an NMAE delta <= 1e-2, and
  the streaming leg must have ingested a million reports.  This gates
  the *committed* artifact, so a regression can't land silently by
  simply not re-running the bench.
"""

import json
import re
from pathlib import Path

import pytest

from repro.experiments.perf_bench import run_perf_bench

REPO_ROOT = Path(__file__).resolve().parents[2]

# The ISSUE's acceptance bounds for the committed full-profile run.
MIN_SPEEDUP = 3.0
MAX_NMAE_DELTA = 1e-2
MIN_STREAM_REPORTS = 1_000_000


def _latest_committed_payload() -> dict:
    candidates = sorted(
        p for p in REPO_ROOT.glob("BENCH_*.json")
        if re.fullmatch(r"BENCH_\d{4}-\d{2}-\d{2}\.json", p.name)
    )
    assert candidates, "no committed BENCH_<date>.json at the repo root"
    return json.loads(candidates[-1].read_text())


@pytest.fixture(scope="module")
def sharded_report():
    # Only the sharded suite: no matrix cases, no tuning/baselines.
    return run_perf_bench(
        cases=[],
        smoke=True,
        seed=0,
        include_tune=False,
        include_baselines=False,
        include_ingestion=False,
    )


class TestShardedSuiteSmoke:
    def test_records_present(self, sharded_report):
        algorithms = {r.algorithm for r in sharded_report.records}
        assert {"cs-monolithic", "cs-sharded", "sharded-stream-ingest"} <= algorithms

    def test_summary_schema(self, sharded_report):
        summary = sharded_report.sharded
        assert summary["mode"] == "multilevel"
        assert summary["shards"] >= 2
        assert summary["halo"] == 1
        assert summary["speedup"] > 0.0
        assert summary["nmae_delta"] >= 0.0
        ingest = summary["ingestion"]
        assert ingest["reports"] == 20_000
        assert ingest["reports_per_s"] > 0.0
        assert ingest["slots_closed"] > 0

    def test_payload_carries_sharded_key(self, sharded_report):
        payload = sharded_report.to_payload()
        assert payload["schema"] == 6
        assert payload["sharded"]["case"].startswith("sharded-")
        for record in payload["records"]:
            assert {"p50_ms", "p95_ms", "throughput_rps"} <= set(record)

    def test_smoke_accuracy_delta_within_bound(self, sharded_report):
        # The acceptance bound is for the metro scale, but the small
        # profile should not be wildly off either.
        assert sharded_report.sharded["nmae_delta"] <= MAX_NMAE_DELTA


class TestCommittedBaselineGate:
    def test_committed_sharded_suite_meets_acceptance(self):
        payload = _latest_committed_payload()
        assert payload["schema"] >= 4, (
            "newest committed BENCH predates the sharded suite; "
            "re-run `repro bench` and commit the artifact"
        )
        summary = payload["sharded"]
        assert summary["segments"] >= 5_000
        assert summary["speedup"] >= MIN_SPEEDUP, (
            f"committed sharded speedup {summary['speedup']:.2f}x is below "
            f"the {MIN_SPEEDUP:.0f}x acceptance floor"
        )
        assert summary["nmae_delta"] <= MAX_NMAE_DELTA, (
            f"committed sharded NMAE delta {summary['nmae_delta']:.4f} "
            f"exceeds the {MAX_NMAE_DELTA:g} acceptance ceiling"
        )

    def test_committed_stream_leg_is_million_scale(self):
        payload = _latest_committed_payload()
        ingest = payload["sharded"]["ingestion"]
        assert ingest["reports"] >= MIN_STREAM_REPORTS
        assert ingest["reports_per_s"] > 0.0
        assert ingest["recompletions"] > 0
