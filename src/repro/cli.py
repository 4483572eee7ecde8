"""Command-line interface.

``python -m repro.cli <command>`` exposes the pipeline without writing
Python:

* ``gen-network``  — generate a synthetic road network (JSON).
* ``gen-dataset``  — simulate a probe dataset; saves ground-truth and
  measurement TCMs (``.npz``) next to the network.
* ``estimate``     — complete a measurement TCM with Algorithm 1
  (optionally Algorithm 2 tuning) and save the estimate.
* ``evaluate``     — score an estimate against a ground-truth TCM.
* ``integrity``    — print the integrity report of a measurement TCM.
* ``experiments``  — run the paper's full experiment battery.
* ``lint``         — run the project's numerical-correctness and
  parallel-safety linter (:mod:`repro.analysis`) over source paths.
  Exit codes: 0 = clean, 1 = findings (after baseline filtering),
  2 = usage/parse/internal error.
* ``verify-determinism`` — double-run the parallel entry points
  (serial vs worker pool) and fail unless the results are
  bit-identical (:mod:`repro.analysis.determinism`).
* ``bench``        — time the hot paths (Algorithm 1 in float64 and
  float32, tuning, baselines) and write a machine-readable
  ``BENCH_<date>.json``.
* ``trace``        — inspect run manifests: ``trace summarize`` prints
  the per-phase rollup and the top-N spans of a manifest
  (:mod:`repro.obs`).
* ``obs``          — export a manifest's spans (JSONL) or metrics
  (JSONL / Prometheus text) for external tooling.
* ``store``        — inspect the persistent artifact store backing
  incremental ``experiments --store`` runs: ``store ls`` lists entries,
  ``store gc --max-bytes N`` evicts least-recently-used entries past a
  size cap, ``store clear`` empties it.

``experiments``, ``verify-determinism``, and ``bench`` accept
``--manifest PATH`` to write a run manifest (enabling observability for
that invocation).  Exit codes follow the repo convention: 0 = success,
1 = findings/regression/mismatch, 2 = usage or input error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np


def _cmd_gen_network(args: argparse.Namespace) -> int:
    from repro.roadnet.generators import (
        grid_city,
        ring_radial_city,
        shanghai_downtown_like,
        shenzhen_downtown_like,
    )
    from repro.roadnet.io import save_network

    if args.kind == "grid":
        network = grid_city(args.rows, args.cols, seed=args.seed)
    elif args.kind == "ring":
        network = ring_radial_city(args.rings, args.radials, seed=args.seed)
    elif args.kind == "shanghai":
        network = shanghai_downtown_like(seed=args.seed)
    else:
        network = shenzhen_downtown_like(seed=args.seed)
    save_network(network, args.output)
    print(
        f"wrote {network.name}: {network.num_intersections} intersections, "
        f"{network.num_segments} segments -> {args.output}"
    )
    return 0


def _cmd_gen_dataset(args: argparse.Namespace) -> int:
    from repro.datasets.loaders import save_tcm
    from repro.datasets.synthetic import (
        SyntheticDatasetConfig,
        build_probe_dataset,
    )
    from repro.roadnet.io import load_network

    network = load_network(args.network)
    config = SyntheticDatasetConfig(
        days=args.days, num_vehicles=args.vehicles, slot_s=args.slot_s
    )
    data = build_probe_dataset(network, config, seed=args.seed)
    out = Path(args.output_prefix)
    truth_path = out.with_name(out.name + "-truth.npz")
    meas_path = out.with_name(out.name + "-measured.npz")
    save_tcm(data.truth_tcm, truth_path)
    save_tcm(data.measurements, meas_path)
    print(
        f"simulated {len(data.reports)} reports from {args.vehicles} vehicles; "
        f"integrity {data.measurements.integrity:.1%}"
    )
    print(f"wrote {truth_path} and {meas_path}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    from repro.core.estimator import TrafficEstimator
    from repro.core.tuning import GeneticTuner
    from repro.datasets.loaders import load_tcm, save_tcm

    measured = load_tcm(args.input)
    if args.shards > 1:
        return _estimate_sharded(args, measured)
    tuner = None
    if args.auto_tune:
        tuner = GeneticTuner(seed=args.seed)
    estimator = TrafficEstimator(
        rank=args.rank,
        lam=args.lam,
        iterations=args.iterations,
        tuner=tuner,
        dtype=args.dtype,
        seed=args.seed,
    )
    output = estimator.estimate(measured)
    save_tcm(output.estimate, args.output)
    if output.tuning is not None:
        print(
            f"Algorithm 2 selected r={output.tuning.rank}, "
            f"lambda={output.tuning.lam:.2f}"
        )
    print(
        f"completed {measured.shape} matrix "
        f"(integrity {measured.integrity:.1%}) -> {args.output}"
    )
    return 0


def _estimate_sharded(args: argparse.Namespace, measured) -> int:
    """``repro estimate --shards N``: the metropolitan sharded path."""
    from repro.datasets.loaders import save_tcm
    from repro.scale import ShardedEstimator, contiguous_shards
    from repro.scale.sharded import ShardedCompleter

    if args.auto_tune:
        print(
            "error: --auto-tune is not supported with --shards; tune once "
            "monolithically, then pass --rank/--lam",
            file=sys.stderr,
        )
        return 2
    if args.network is not None:
        from repro.roadnet.io import load_network

        network = load_network(args.network)
        estimator = ShardedEstimator(
            network,
            shards=args.shards,
            halo=args.halo,
            partitioner=args.partitioner,
            rank=args.rank,
            lam=args.lam,
            iterations=args.iterations,
            dtype=args.dtype,
            max_workers=args.max_workers,
            seed=args.seed,
        )
        output = estimator.estimate(measured)
        result = output.completion
        estimate = output.estimate
        realized = estimator.num_shards
    else:
        # No network geometry: fall back to contiguous column runs.
        if args.partitioner == "grid":
            print(
                "note: --shards without --network uses the geometry-free "
                "contiguous partitioner",
                file=sys.stderr,
            )
        shards = contiguous_shards(measured.segment_ids, args.shards)
        completer = ShardedCompleter(
            rank=args.rank,
            lam=args.lam,
            iterations=args.iterations,
            clip_min=0.0,
            clip_max=150.0,
            center=True,
            dtype=args.dtype,
            max_workers=args.max_workers,
            seed=args.seed,
        )
        result = completer.complete(measured, shards)
        from repro.core.tcm import TrafficConditionMatrix

        estimate = TrafficConditionMatrix(
            result.estimate,
            grid=measured.grid,
            segment_ids=measured.segment_ids,
        )
        realized = len(shards)
    save_tcm(estimate, args.output)
    print(
        f"completed {measured.shape} matrix "
        f"(integrity {measured.integrity:.1%}) over {realized} shards "
        f"({result.mode} regime, stitch {result.stitch_s * 1000.0:.1f} ms) "
        f"-> {args.output}"
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.datasets.loaders import load_tcm
    from repro.metrics.errors import estimate_error, nmae, rmse

    truth = load_tcm(args.truth)
    estimate = load_tcm(args.estimate)
    measured = load_tcm(args.measured) if args.measured else None
    if truth.shape != estimate.shape:
        print(
            f"error: shape mismatch {truth.shape} vs {estimate.shape}",
            file=sys.stderr,
        )
        return 2
    if measured is not None:
        err = estimate_error(
            truth.values, estimate.values, measured.mask, truth.mask
        )
        print(f"estimate error (NMAE over missing cells): {err:.4f}")
    print(f"overall NMAE: {nmae(truth.values, estimate.values, truth.mask):.4f}")
    print(f"overall RMSE: {rmse(truth.values, estimate.values, truth.mask):.4f} km/h")
    return 0


def _cmd_integrity(args: argparse.Namespace) -> int:
    from repro.datasets.loaders import load_tcm
    from repro.probes.integrity import integrity_summary

    tcm = load_tcm(args.input)
    report = integrity_summary(tcm)
    print(f"matrix: {tcm.shape} (slots x segments)")
    print(f"overall integrity: {report.overall:.2%}")
    print(f"roads with integrity <= 20%: {report.roads_below(0.2):.1%}")
    print(f"roads with integrity <= 60%: {report.roads_below(0.6):.1%}")
    print(f"roads never observed:        {report.roads_near_zero():.1%}")
    print(f"slots with integrity <= 18%: {report.slots_below(0.18):.1%}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.runner import main as runner_main

    argv = ["--profile", args.profile, "--seed", str(args.seed)]
    if args.max_workers is not None:
        argv += ["--max-workers", str(args.max_workers)]
    if args.manifest:
        argv += ["--manifest", args.manifest]
    if args.store:
        argv += ["--store"]
    if args.store_dir:
        argv += ["--store-dir", args.store_dir]
    return runner_main(argv)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report_writer import write_report

    path = write_report(args.output, profile=args.profile, seed=args.seed)
    print(f"wrote reproduction report -> {path}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.apps.trip_planner import TripPlannerService
    from repro.datasets.loaders import load_tcm
    from repro.roadnet.io import load_network

    network = load_network(args.network)
    tcm = load_tcm(args.estimate)
    planner = TripPlannerService(network, tcm)
    plan = planner.plan(args.origin, args.destination, args.depart_s)
    if plan is None:
        print(
            f"no route from {args.origin} to {args.destination}",
            file=sys.stderr,
        )
        return 1
    print(
        f"route {plan.origin} -> {plan.destination}: "
        f"{plan.num_links} links, {plan.travel_time_s / 60:.1f} min"
    )
    print("segments:", " ".join(str(s) for s in plan.segment_ids))
    return 0


def _cmd_anomalies(args: argparse.Namespace) -> int:
    from repro.core.anomaly import ResidualAnomalyDetector
    from repro.datasets.loaders import load_tcm

    tcm = load_tcm(args.input)
    if not tcm.is_complete:
        print("input TCM is partial; run `repro estimate` first", file=sys.stderr)
        return 2
    detector = ResidualAnomalyDetector(
        rank=args.rank, threshold_sigmas=args.threshold
    )
    events = detector.detect(tcm)
    print(f"{len(events)} anomalous slot(s)")
    for event in events[: args.limit]:
        print(
            f"  slot {event.slot:4d}  score {event.score:5.1f}  "
            f"segments {event.segment_ids[:6]}"
        )
    return 0


def _changed_python_files(base: str) -> "list[str]":
    """Absolute paths of Python files changed vs ``base`` (plus untracked).

    Changed = ``git diff --name-only $(git merge-base base HEAD)`` plus
    untracked files, so both committed and in-progress work count.
    Raises ``RuntimeError`` when git (or the base ref) is unavailable.
    """
    import subprocess

    def run(*argv: str) -> str:
        proc = subprocess.run(
            ["git", *argv], capture_output=True, text=True, check=False
        )
        if proc.returncode != 0:
            detail = proc.stderr.strip() or proc.stdout.strip() or "unknown git error"
            raise RuntimeError(f"git {' '.join(argv)} failed: {detail}")
        return proc.stdout

    root = Path(run("rev-parse", "--show-toplevel").strip())
    merge_base = run("merge-base", base, "HEAD").strip()
    names = set(run("diff", "--name-only", "-z", merge_base, "--").split("\0"))
    names.update(run("ls-files", "--others", "--exclude-standard", "-z").split("\0"))
    return sorted(
        str(root / name) for name in names if name and name.endswith(".py")
    )


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import REGISTRY, get_rules, lint_paths
    from repro.analysis.baseline import (
        BaselineMismatch,
        apply_baseline,
        load_baseline,
        write_baseline,
    )
    from repro.analysis.sarif import render_sarif

    if args.list_rules:
        for name, cls in REGISTRY.items():
            print(f"{name:24s} [{cls.severity:7s}] {cls.description}")
        return 0
    if args.update_baseline and not args.baseline:
        print("error: --update-baseline requires --baseline", file=sys.stderr)
        return 2
    if args.update_baseline and args.changed:
        print(
            "error: --update-baseline needs a full run, not --changed",
            file=sys.stderr,
        )
        return 2
    changed = None
    if args.changed:
        try:
            changed = _changed_python_files(args.base)
        except (OSError, RuntimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not changed:
            print(f"0 finding(s) (no Python files changed vs {args.base})")
            return 0
    paths = args.paths or [str(Path(__file__).resolve().parent)]
    try:
        rules = get_rules(args.rules.split(",")) if args.rules else None
        report = lint_paths(paths, rules=rules, changed=changed)
    except KeyError as exc:
        # KeyError's str() wraps the message in quotes; unwrap it.
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (ValueError, SyntaxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.update_baseline:
        out = write_baseline(args.baseline, report)
        print(f"recorded {len(report.findings)} finding(s) -> {out}")
        return 0

    new_findings = report.findings
    accepted_count = 0
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (BaselineMismatch, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        new_findings, accepted = apply_baseline(report, baseline)
        accepted_count = len(accepted)

    if args.format == "sarif":
        rendered = render_sarif(report, rules=rules)
    elif args.format == "json":
        rendered = json.dumps(
            [
                {
                    "path": f.path,
                    "line": f.line,
                    "col": f.col,
                    "rule": f.rule,
                    "severity": f.severity,
                    "message": f.message,
                    "hint": f.hint,
                    "trace": [
                        {
                            "path": frame.path,
                            "line": frame.line,
                            "function": frame.function,
                            "note": frame.note,
                        }
                        for frame in f.trace
                    ],
                }
                for f in new_findings
            ],
            indent=2,
        )
    else:
        lines = [finding.render(explain=args.explain) for finding in new_findings]
        summary = f"{len(new_findings)} finding(s)"
        if accepted_count:
            summary += f" ({accepted_count} baselined)"
        if report.suppressed:
            summary += f", {len(report.suppressed)} suppressed"
        lines.append(summary)
        rendered = "\n".join(lines)
    if args.output:
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(rendered)
    return 0 if not new_findings else 1


def _cmd_verify_determinism(args: argparse.Namespace) -> int:
    from repro.analysis.determinism import run_determinism_suite

    if args.manifest:
        from repro.obs import trace as obs_trace

        obs_trace.enable()
    try:
        report = run_determinism_suite(
            checks=args.checks,
            smoke=args.smoke,
            seed=args.seed,
            max_workers=args.max_workers,
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    print(report.render())
    if args.manifest:
        from repro.obs import manifest as obs_manifest

        payload = obs_manifest.build_manifest(
            "verify-determinism",
            config={
                "checks": list(args.checks) if args.checks else [],
                "smoke": bool(args.smoke),
                "seed": args.seed,
                "max_workers": args.max_workers,
            },
            seed=args.seed,
            jobs=[
                {
                    "name": check.name,
                    "status": "ok" if check.ok else "mismatch",
                    "wall_s": check.elapsed_s,
                    "detail": check.detail,
                }
                for check in report.checks
            ],
        )
        out = obs_manifest.write_manifest(payload, args.manifest)
        print(f"manifest: {out}")
    return 0 if report.ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.perf_bench import (
        compare_with_baseline,
        default_output_name,
        run_perf_bench,
    )

    if args.manifest:
        from repro.obs import trace as obs_trace

        obs_trace.enable()
    sharded_only = args.suite == "sharded"
    serving_only = args.suite == "serving"
    suite_only = sharded_only or serving_only
    store = None
    if args.store:
        from repro.experiments.store import ArtifactStore, default_store_root

        store = ArtifactStore(root=args.store_dir or default_store_root())
    report = run_perf_bench(
        cases=[] if suite_only else None,
        smoke=args.smoke,
        seed=args.seed,
        repeats=args.repeats,
        include_tune=not suite_only,
        include_baselines=not suite_only,
        include_ingestion=not suite_only,
        include_sharded=not serving_only,
        include_serving=not sharded_only,
        serving_store=store,
        max_workers=args.max_workers,
        strict=not args.no_strict,
    )
    print(report.render())
    out = report.write_json(args.output or default_output_name())
    print(f"wrote {out}")
    if args.manifest:
        from repro.obs import manifest as obs_manifest

        payload = obs_manifest.build_manifest(
            "bench",
            config={
                "smoke": bool(args.smoke),
                "seed": args.seed,
                "repeats": args.repeats,
                "max_workers": args.max_workers,
            },
            seed=args.seed,
            jobs=[
                {
                    "name": f"{record.case}/{record.algorithm}",
                    "status": "ok",
                    "wall_s": record.wall_s,
                }
                for record in report.records
            ],
        )
        manifest_out = obs_manifest.write_manifest(payload, args.manifest)
        print(f"manifest: {manifest_out}")
    if args.compare:
        comparison = compare_with_baseline(
            report, args.compare, threshold=args.compare_threshold
        )
        print(comparison.render())
        if not comparison.ok:
            return 1
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.experiments.store import (
        ArtifactStore,
        default_store_root,
        format_size,
        render_entries,
    )

    store = ArtifactStore(root=args.store_dir or default_store_root())
    if args.store_command == "ls":
        entries = store.entries()
        if args.json:
            import json

            print(
                json.dumps(
                    [
                        {
                            "key": e.key,
                            "step": e.step,
                            "size_bytes": e.size_bytes,
                            "created_utc": e.created_utc,
                        }
                        for e in entries
                    ],
                    indent=2,
                )
            )
        else:
            print(render_entries(entries))
        return 0
    if args.store_command == "gc":
        evicted = store.gc(args.max_bytes)
        freed = sum(e.size_bytes for e in evicted)
        print(
            f"evicted {len(evicted)} entr"
            f"{'y' if len(evicted) == 1 else 'ies'} ({format_size(freed)}); "
            f"store now {format_size(store.total_bytes())}"
        )
        return 0
    removed = store.clear()
    print(f"removed {removed} file(s) from {store.version_dir}")
    return 0


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    from repro.obs.manifest import load_manifest
    from repro.obs.schema import validate_manifest
    from repro.obs.summarize import summarize_manifest

    try:
        payload = load_manifest(args.manifest)
        validate_manifest(payload)
        rendered = summarize_manifest(payload, top=args.top)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(rendered)
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    from repro.obs.manifest import load_manifest
    from repro.obs.metrics import render_prometheus
    from repro.obs.summarize import render_spans_jsonl, spans_from_manifest

    try:
        payload = load_manifest(args.manifest)
        if args.what == "spans":
            if args.format != "jsonl":
                print("error: spans export only supports jsonl", file=sys.stderr)
                return 2
            rendered = render_spans_jsonl(spans_from_manifest(payload))
        else:
            metrics = payload.get("metrics")
            if not isinstance(metrics, dict):
                raise ValueError(f"{args.manifest} has no metrics section")
            if args.format == "prometheus":
                rendered = render_prometheus(metrics)
            else:
                import json

                lines = []
                for kind in ("counters", "gauges", "histograms"):
                    for name, value in sorted(metrics.get(kind, {}).items()):
                        entry = {"name": name, "kind": kind.rstrip("s")}
                        if isinstance(value, dict):
                            entry.update(value)
                        else:
                            entry["value"] = value
                        lines.append(
                            json.dumps(
                                entry, sort_keys=True, separators=(",", ":")
                            )
                        )
                rendered = "\n".join(lines)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(rendered)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-network", help="generate a synthetic road network")
    p.add_argument("output", help="output JSON path")
    p.add_argument(
        "--kind",
        choices=("grid", "ring", "shanghai", "shenzhen"),
        default="grid",
    )
    p.add_argument("--rows", type=int, default=8)
    p.add_argument("--cols", type=int, default=8)
    p.add_argument("--rings", type=int, default=4)
    p.add_argument("--radials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen_network)

    p = sub.add_parser("gen-dataset", help="simulate a probe dataset")
    p.add_argument("network", help="network JSON from gen-network")
    p.add_argument("output_prefix", help="prefix for the output .npz files")
    p.add_argument("--days", type=float, default=1.0)
    p.add_argument("--vehicles", type=int, default=500)
    p.add_argument("--slot-s", type=float, default=1800.0, dest="slot_s")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen_dataset)

    p = sub.add_parser("estimate", help="complete a measurement TCM")
    p.add_argument("input", help="measurement TCM (.npz)")
    p.add_argument("output", help="estimate TCM output (.npz)")
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--lam", type=float, default=10.0)
    p.add_argument("--iterations", type=int, default=100)
    p.add_argument("--auto-tune", action="store_true", dest="auto_tune")
    p.add_argument(
        "--dtype",
        default=None,
        choices=("float32", "float64"),
        help="working dtype (default: honor float32 input, else float64)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--shards",
        type=int,
        default=1,
        help="complete per spatial shard and stitch (metropolitan scale); "
        "1 = monolithic",
    )
    p.add_argument(
        "--halo",
        type=int,
        default=1,
        help="shard overlap depth in segment-adjacency hops (grid "
        "partitioner only)",
    )
    p.add_argument(
        "--partitioner",
        default="grid",
        choices=("grid", "single", "contiguous"),
        help="spatial partitioner for --shards > 1",
    )
    p.add_argument(
        "--network",
        default=None,
        help="network JSON from gen-network (enables the grid partitioner; "
        "without it --shards falls back to contiguous column runs)",
    )
    p.add_argument(
        "--max-workers",
        type=int,
        default=None,
        dest="max_workers",
        help="thread-pool width for per-shard solves (default: serial)",
    )
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("evaluate", help="score an estimate against truth")
    p.add_argument("truth", help="ground-truth TCM (.npz)")
    p.add_argument("estimate", help="estimate TCM (.npz)")
    p.add_argument(
        "--measured",
        help="measurement TCM; restricts NMAE to its missing cells",
    )
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("integrity", help="print a TCM's integrity report")
    p.add_argument("input", help="measurement TCM (.npz)")
    p.set_defaults(func=_cmd_integrity)

    p = sub.add_parser("experiments", help="run the paper's experiment battery")
    p.add_argument("--profile", choices=("smoke", "quick", "paper"), default="quick")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--max-workers",
        type=int,
        default=None,
        dest="max_workers",
        help="thread-pool width for independent figure/table cells",
    )
    p.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="write a run manifest here (enables observability for the run)",
    )
    p.add_argument(
        "--store",
        action="store_true",
        default=False,
        help="persist and reuse step outputs through the on-disk artifact "
        "store; unchanged cells are loaded instead of re-run",
    )
    p.add_argument(
        "--no-store",
        dest="store",
        action="store_false",
        help="force a from-scratch run even when a store directory exists",
    )
    p.add_argument(
        "--store-dir",
        default=None,
        dest="store_dir",
        metavar="DIR",
        help="artifact store directory (default: $REPRO_STORE_DIR or "
        ".repro-store)",
    )
    p.set_defaults(func=_cmd_experiments)

    p = sub.add_parser("report", help="write the battery as a Markdown report")
    p.add_argument("output", help="output .md path")
    p.add_argument("--profile", choices=("quick", "paper"), default="quick")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("plan", help="plan a trip over an estimated TCM")
    p.add_argument("network", help="network JSON")
    p.add_argument("estimate", help="complete estimate TCM (.npz)")
    p.add_argument("origin", type=int, help="origin intersection id")
    p.add_argument("destination", type=int, help="destination intersection id")
    p.add_argument("--depart-s", type=float, default=0.0, dest="depart_s")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser(
        "lint",
        help="run the numerical-correctness and parallel-safety linter",
        epilog=(
            "exit codes: 0 = clean (or every finding baselined/suppressed); "
            "1 = at least one new finding; 2 = bad usage, unreadable "
            "baseline, or parse/internal error"
        ),
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the installed repro package)",
    )
    p.add_argument(
        "--rules",
        help="comma-separated rule names to run (default: all)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="findings output format (sarif = SARIF 2.1.0 for code scanning)",
    )
    p.add_argument(
        "--output",
        default=None,
        help="write the rendered output to this file instead of stdout",
    )
    p.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON of accepted findings; only findings not in it "
        "fail the run",
    )
    p.add_argument(
        "--update-baseline",
        action="store_true",
        dest="update_baseline",
        help="rewrite --baseline from the current findings and exit 0",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        dest="list_rules",
        help="print the rule catalogue and exit",
    )
    p.add_argument(
        "--explain",
        action="store_true",
        help="print the call-chain provenance under each whole-program "
        "finding (worker -> helper -> offending statement)",
    )
    p.add_argument(
        "--changed",
        action="store_true",
        help="report only on Python files changed vs --base (the "
        "whole-program pass still loads every file under paths)",
    )
    p.add_argument(
        "--base",
        default="origin/main",
        help="git ref --changed diffs against (default: origin/main)",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "verify-determinism",
        help="prove serial == parallel bit-for-bit at the runtime seams",
        epilog=(
            "runs each parallel entry point twice (max_workers=1 vs N) and "
            "diffs the results bit for bit; exit 1 on any mismatch"
        ),
    )
    p.add_argument(
        "--checks",
        nargs="+",
        default=None,
        metavar="CHECK",
        help="subset to run: completion, tuning, sharded, run-all "
        "(default: all)",
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-fast CI workloads instead of the quick profile",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--max-workers",
        type=int,
        default=None,
        dest="max_workers",
        help="parallel-side pool width (default: min(4, cores))",
    )
    p.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="write a run manifest here (enables observability for the run)",
    )
    p.set_defaults(func=_cmd_verify_determinism)

    p = sub.add_parser("bench", help="run the performance benchmark harness")
    p.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-fast CI profile (small matrices, few sweeps)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--suite",
        default="all",
        choices=("all", "sharded", "serving"),
        help="'sharded' runs only the metropolitan sharded suite (the "
        "nightly million-report leg); 'serving' runs only the apps/ "
        "query-layer load suite (p50/p95 latency + throughput)",
    )
    p.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timed repetitions per measurement (best-of; default 3, smoke 1)",
    )
    p.add_argument(
        "--max-workers",
        type=int,
        default=None,
        dest="max_workers",
        help="worker pool for restarts/GA fitness (default: serial)",
    )
    p.add_argument(
        "--output",
        default=None,
        help="JSON output path (default: BENCH_<date>.json)",
    )
    p.add_argument(
        "--no-strict",
        action="store_true",
        dest="no_strict",
        help="do not fail when the float32 estimate departs from float64 "
        "(or a vectorized path from its reference) beyond the tolerance",
    )
    p.add_argument(
        "--compare",
        default=None,
        help="committed BENCH_<date>.json to diff against; exits non-zero "
        "when any tracked case regressed beyond the threshold",
    )
    p.add_argument(
        "--compare-threshold",
        type=float,
        default=1.5,
        dest="compare_threshold",
        help="wall-clock regression factor that fails the comparison",
    )
    p.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="write a run manifest here (enables observability for the run)",
    )
    p.add_argument(
        "--store",
        action="store_true",
        default=False,
        help="load/persist the serving-suite world through the artifact "
        "store so warm runs measure queries, not estimation",
    )
    p.add_argument(
        "--store-dir",
        default=None,
        dest="store_dir",
        metavar="DIR",
        help="artifact store directory (default: $REPRO_STORE_DIR or "
        ".repro-store)",
    )
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "store", help="inspect the persistent experiment artifact store"
    )
    store_sub = p.add_subparsers(dest="store_command", required=True)
    pl = store_sub.add_parser("ls", help="list the store's entries")
    pl.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    pl.add_argument(
        "--store-dir",
        default=None,
        dest="store_dir",
        metavar="DIR",
        help="store directory (default: $REPRO_STORE_DIR or .repro-store)",
    )
    pl.set_defaults(func=_cmd_store)
    pg = store_sub.add_parser(
        "gc", help="evict least-recently-used entries past a size cap"
    )
    pg.add_argument(
        "--max-bytes",
        type=int,
        required=True,
        dest="max_bytes",
        help="evict oldest entries until the store fits this many bytes",
    )
    pg.add_argument(
        "--store-dir",
        default=None,
        dest="store_dir",
        metavar="DIR",
        help="store directory (default: $REPRO_STORE_DIR or .repro-store)",
    )
    pg.set_defaults(func=_cmd_store)
    pc = store_sub.add_parser(
        "clear", help="remove every entry of the current schema"
    )
    pc.add_argument(
        "--store-dir",
        default=None,
        dest="store_dir",
        metavar="DIR",
        help="store directory (default: $REPRO_STORE_DIR or .repro-store)",
    )
    pc.set_defaults(func=_cmd_store)

    p = sub.add_parser("trace", help="inspect run manifests (observability)")
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    ps = trace_sub.add_parser(
        "summarize",
        help="per-phase rollup and top-N spans of a run manifest",
        epilog=(
            "the manifest is validated against the committed schema first; "
            "exit 2 on unreadable or invalid input"
        ),
    )
    ps.add_argument("manifest", help="run manifest JSON (from --manifest runs)")
    ps.add_argument(
        "--top",
        type=int,
        default=10,
        help="number of longest spans to list (default: 10)",
    )
    ps.set_defaults(func=_cmd_trace_summarize)

    p = sub.add_parser(
        "obs", help="export observability data from run manifests"
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    pe = obs_sub.add_parser(
        "export",
        help="export a manifest's spans or metrics for external tooling",
    )
    pe.add_argument("manifest", help="run manifest JSON (from --manifest runs)")
    pe.add_argument(
        "--what",
        choices=("spans", "metrics"),
        default="spans",
        help="which section to export (default: spans)",
    )
    pe.add_argument(
        "--format",
        choices=("jsonl", "prometheus"),
        default="jsonl",
        help="jsonl (spans or metrics) or prometheus (metrics only)",
    )
    pe.add_argument(
        "--output",
        default=None,
        help="write here instead of stdout",
    )
    pe.set_defaults(func=_cmd_obs_export)

    p = sub.add_parser("anomalies", help="detect incidents in a complete TCM")
    p.add_argument("input", help="complete TCM (.npz)")
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--threshold", type=float, default=3.5)
    p.add_argument("--limit", type=int, default=20)
    p.set_defaults(func=_cmd_anomalies)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
