"""Same-runner comparison of benchmark reports: ``--compare BASE NEW``.

BASE and NEW are each a report written by ``--out``, a file holding
``{"runs": [report, ...]}``, or a directory of such files, so a side can
hold several runs.  For every workload and end-to-end metric of
``BENCHMARK.json`` it prints the median and quartiles of each side and a
verdict:

* ``unresolved`` when either side's quartile spread (as a share of its
  median) exceeds the metric's bound, unless every NEW run beats every
  BASE run;
* ``worse`` when NEW's median is worse by more than the bound;
* ``better`` when it is better by more than both sides' spreads;
* otherwise, or when the medians differ by no more than the metric's
  absolute floor, ``unchanged``.

A workload's row is ``worse`` if any metric is, else ``unresolved`` if
any is, else ``better`` if any is, else ``unchanged``.  Runs from
different environments (CPU count, Python, NumPy or BLAS threads) are
refused: cross-machine ratios are not comparisons.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Tuple

from benchmarks.e2e.workloads import load_benchmark_json

ENVIRONMENT_KEYS = ("cpu_count", "python", "numpy", "blas_threads")

#: Absolute changes at or below these are timer or sampling noise.
FLOORS = {
    "setup_s": 0.002,
    "latency_p90_ms": 0.5,
    "nmae": 1e-4,
    "peak_rss_mb": 4.0,
}

VERDICT_ORDER = ("worse", "unresolved", "better", "unchanged")


class Summary(NamedTuple):
    q1: float
    median: float
    q3: float

    @property
    def spread(self) -> float:
        return (self.q3 - self.q1) / self.median if self.median else 0.0


def summarize(values: List[float]) -> Summary:
    if len(values) == 1:
        return Summary(values[0], values[0], values[0])
    q1, median, q3 = statistics.quantiles(values, n=4)
    return Summary(q1, median, q3)


def load_runs(path: Path) -> List[Dict[str, Any]]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: List[Dict[str, Any]] = []
    for file in files:
        payload = json.loads(file.read_text())
        runs.extend(payload["runs"] if "runs" in payload else [payload])
    if not runs:
        raise ValueError(f"no benchmark reports in {path}")
    return runs


def environment_mismatch(base: List[Dict[str, Any]], new: List[Dict[str, Any]]) -> List[str]:
    """Differences in the settings that make two runs comparable."""
    problems = []
    for key in ENVIRONMENT_KEYS:
        seen = {json.dumps(run["environment"].get(key), sort_keys=True) for run in base + new}
        if len(seen) > 1:
            problems.append(f"{key} differs: {sorted(seen)}")
    return problems


def judge(
    metric: Dict[str, Any], base: List[float], new: List[float]
) -> Tuple[str, Summary, Summary]:
    lower = metric["better"] == "lower"
    b, n = summarize(base), summarize(new)
    if lower:
        all_better = max(new) < min(base)
    else:
        all_better = min(new) > max(base)
    diff = n.median - b.median
    spread = max(b.spread, n.spread)
    change = abs(diff) / b.median if b.median else 0.0
    if abs(diff) <= FLOORS.get(metric["name"], 0.0):
        return "unchanged", b, n
    if all_better:
        return "better", b, n
    if spread > metric["bound"]:
        return "unresolved", b, n
    if (diff > 0) == lower:
        return ("worse" if change > metric["bound"] else "unchanged"), b, n
    return ("better" if change > spread else "unchanged"), b, n


def metric_values(runs: List[Dict[str, Any]], workload: str, name: str) -> List[float]:
    return [
        run["workloads"][workload]["e2e"][name]
        for run in runs
        if workload in run["workloads"] and run["workloads"][workload]["e2e"].get(name) is not None
    ]


def main(base_path: Path, new_path: Path) -> int:
    base, new = load_runs(base_path), load_runs(new_path)
    problems = environment_mismatch(base, new)
    if problems:
        for problem in problems:
            print(f"refusing to compare: {problem}", file=sys.stderr)
        return 2
    metrics = load_benchmark_json()["end_to_end"]
    workloads = sorted(
        {w for run in base for w in run["workloads"]} & {w for run in new for w in run["workloads"]}
    )
    print(f"base: {len(base)} run(s) from {base_path}; new: {len(new)} run(s) from {new_path}")
    any_worse = False
    for workload in workloads:
        rows = []
        for metric in metrics:
            b_vals = metric_values(base, workload, metric["name"])
            n_vals = metric_values(new, workload, metric["name"])
            if not b_vals or not n_vals:
                continue
            verdict, b, n = judge(metric, b_vals, n_vals)
            change = (n.median - b.median) / b.median if b.median else 0.0
            rows.append((verdict, metric, b, n, change))
        row_verdict = min((r[0] for r in rows), key=VERDICT_ORDER.index, default="unchanged")
        any_worse |= row_verdict == "worse"
        print(f"{workload}: {row_verdict}")
        for verdict, metric, b, n, change in rows:
            print(
                f"  {metric['name']:20s} base {b.median:<11.5g} [{b.q1:.5g}, {b.q3:.5g}]"
                f"  new {n.median:<11.5g} [{n.q1:.5g}, {n.q3:.5g}]"
                f"  {change:+7.1%} (bound {metric['bound']:.0%})  {verdict}"
            )
    return 1 if any_worse else 0
