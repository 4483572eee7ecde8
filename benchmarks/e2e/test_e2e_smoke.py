"""Smoke test of the end-to-end benchmark on its ``smoke`` profile.

Runs all four workloads (untraced and traced at seed 0, one workload at
seed 1) through the real command line and checks the contract the
result line and ``--compare`` rely on.  Run with ``pytest benchmarks/e2e``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e.workloads import PROFILES, ROOT, load_benchmark_json

WORKLOADS = sorted(PROFILES["smoke"])
METRO = [w for w in WORKLOADS if w.startswith("metro-")]


def bench(tmp_path: Path, name: str, *args: str):
    out = tmp_path / f"{name}.json"
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--profile", "smoke", "--out", str(out), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return last, json.loads(out.read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    return {
        "metric": bench(tmp, "metric", "--workload", "all", "--seed", "0"),
        "traced": bench(tmp, "traced", "--workload", "all", "--seed", "0", "--trace"),
        "seed1": bench(tmp, "seed1", "--workload", "metro-tripline-stream", "--seed", "1"),
    }


def test_every_metric_is_emitted_with_its_unit(runs):
    spec = load_benchmark_json()
    for run, section in (("metric", "end_to_end"), ("traced", "per_layer")):
        metrics = runs[run][0]["metrics"]
        for workload in WORKLOADS:
            for metric in spec[section]:
                entry = metrics[f"{workload}.{metric['name']}"]
                assert entry["unit"] == metric["unit"]
                assert isinstance(entry["value"], (int, float))
    for workload in WORKLOADS:
        for metric in spec["end_to_end"]:
            assert runs["metric"][0]["metrics"][f"{workload}.{metric['name']}"]["value"] > 0


def test_correctness_gate_passes(runs):
    for last, _ in runs.values():
        assert last["correct"] is True
        assert last["failed"] == 0
        assert last["attempted"] > 0


def test_same_seed_reproduces_every_count(runs):
    metric, traced = runs["metric"][1], runs["traced"][1]
    for workload in WORKLOADS:
        first = metric["workloads"][workload]["fingerprint"]
        again = traced["workloads"][workload]["fingerprint"]
        assert first == again
        assert first["fixes"] > 0


def test_different_seed_changes_the_inputs(runs):
    workload = "metro-tripline-stream"
    seed0 = runs["metric"][1]["workloads"][workload]["load"]["digest"]
    seed1 = runs["seed1"][1]["workloads"][workload]["load"]["digest"]
    assert seed0 != seed1


def test_layer_predictions_hold(runs):
    layers = {w: r["layers"] for w, r in runs["traced"][1]["workloads"].items()}
    for workload in METRO:
        assert layers[workload]["mapmatch.fixes"] == 0
        assert layers[workload]["mapmatch.share"] == 0.0
    assert layers["downtown-raw-stream"]["mapmatch.fixes"] > 0
    assert layers["metro-tripline-stream"]["stream.recompletions_skipped"] > 0
    for workload in WORKLOADS:
        assert layers[workload]["trace.coverage"] >= 0.95
