"""Command line of the end-to-end benchmark (the parent process).

    python -m benchmarks.e2e --workload <name|all> --seed N
        [--profile full|smoke] [--seconds S] [--trace [0|1]] [--out result.json]
    python -m benchmarks.e2e --compare BASE NEW

For each workload the parent makes sure the seeded inputs are cached,
generating them in a child process if not, then measures in a fresh
single-threaded child and prints the metrics.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics named in ``BENCHMARK.json``, or its
per-layer metrics for a traced run.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.e2e import compare
from benchmarks.e2e.workloads import (
    CACHE_DIR,
    DEFAULT_SECONDS,
    PROFILES,
    ROOT,
    Workload,
    input_path,
    load_benchmark_json,
)

#: Children run single-threaded so runs are comparable and reproducible.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
GENERATE_TIMEOUT_S = 800
MEASURE_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update(THREAD_ENV)
    # The metric run always has observability and runtime contracts off;
    # the traced run switches ``repro.obs`` on itself.
    env.update({"REPRO_OBS": "0", "REPRO_CHECK": "0", "PYTHONHASHSEED": "0"})
    return env


def run_child(args: Sequence[str], timeout_s: float) -> str:
    """Run ``benchmarks.e2e.pipeline`` in a fresh interpreter; return its stdout."""
    command = [sys.executable, "-m", "benchmarks.e2e.pipeline", *args]
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout_s,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{args[0]} timed out after {timeout_s:.0f} s") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{args[0]} exited with code {proc.returncode}")
    return proc.stdout


def git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def environment() -> Dict[str, Any]:
    """What ``--compare`` requires to match before comparing two runs."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "blas_threads": THREAD_ENV,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def run_workload(
    workload: Workload, profile: str, seed: int, seconds: float, trace: bool
) -> Dict[str, Any]:
    path = input_path(workload.inputs, seed)
    cached = path.exists()
    common = ["--profile", profile, "--workload", workload.name, "--seed", str(seed)]
    if not cached:
        run_child(["generate", *common], GENERATE_TIMEOUT_S)
    args = ["measure", *common, "--seconds", repr(seconds)]
    trace_path = CACHE_DIR / "traces" / f"{profile}-{workload.name}-s{seed}.jsonl"
    if trace:
        args += ["--trace-out", str(trace_path)]
    result = json.loads(run_child(args, MEASURE_TIMEOUT_S).strip().splitlines()[-1])
    result["load"]["cached"] = cached
    if trace:
        result["trace_path"] = str(trace_path.relative_to(ROOT))
    return result


def contract_metrics(result: Dict[str, Any], spec: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The metrics ``BENCHMARK.json`` names, with its units."""
    section, values = ("per_layer", result["layers"]) if trace else ("end_to_end", result["e2e"])
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}


def print_summary(name: str, result: Dict[str, Any], metrics: Dict[str, Any]) -> None:
    status = "ok" if result["failed"] == 0 else f"FAILED {result['failed']}"
    print(f"{name}: {status} ({result['attempted']} operations, {result['wall_s']:.1f} s wall)")
    for metric, entry in metrics.items():
        value = entry["value"]
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"  {metric:32s} {text:>12s} {entry['unit']}")
    for message in result["errors"]:
        print(f"  error: {message.splitlines()[0]}")


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    names = sorted(PROFILES["full"])
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=[*names, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--profile", choices=sorted(PROFILES), default="full")
    parser.add_argument("--seconds", type=float, help="measured pipeline seconds per run")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="per-layer traced run (a separate run from the metric run)",
    )
    parser.add_argument("--out", type=Path, help="write the full report here")
    parser.add_argument(
        "--compare", nargs=2, metavar=("BASE", "NEW"), type=Path,
        help="compare result reports (files or directories of them)",
    )
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_benchmark_json()
    profile = PROFILES[args.profile]
    seconds = DEFAULT_SECONDS[args.profile] if args.seconds is None else args.seconds
    names: List[str] = list(profile) if args.workload == "all" else [args.workload]
    report: Dict[str, Any] = {
        "environment": environment(),
        "profile": args.profile,
        "seed": args.seed,
        "seconds": seconds,
        "trace": bool(args.trace),
        "workloads": {},
    }
    lines = {}
    for name in names:
        try:
            result = run_workload(profile[name], args.profile, args.seed, seconds, bool(args.trace))
        except ChildFailed as err:
            print(f"error: {name}: {err}", file=sys.stderr)
            return 1
        report["workloads"][name] = result
        lines[name] = contract_metrics(result, spec, bool(args.trace))
        print_summary(name, result, lines[name])
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    results = report["workloads"].values()
    failed = sum(r["failed"] for r in results)
    if len(names) == 1:
        metrics = lines[names[0]]
    else:
        metrics = {f"{w}.{m}": v for w, line in lines.items() for m, v in line.items()}
    final = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0 if failed == 0 else 1
