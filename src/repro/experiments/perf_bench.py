"""Performance benchmark harness (``repro bench``).

The ROADMAP's north star is a system that runs "as fast as the hardware
allows"; this module is the measuring stick.  It times the hot paths —
Algorithm 1 in float64 (``cs-f64``) and float32 (``cs-f32``), Algorithm
2 tuning, the probe ingestion pipeline (map-matching + aggregation),
and the baselines — across matrix sizes and integrities, verifies that
the float32 estimate stays within
:data:`repro.core.completion.FLOAT32_RTOL` of float64 (relative to its
magnitude) and that every other vectorized path agrees with its scalar
reference to :data:`EQUIVALENCE_TOL`, and emits a machine-readable
``BENCH_*.json`` so speedups are *recorded*, not anecdotal.  The
float64 kernel's agreement with the per-column reference solve is
pinned by the tier-1 tests (``tests/solver_oracles.py``), not timed
here.

Two profiles:

* ``smoke=False`` (default) — the paper-scale workload: the Shanghai
  one-week 15-minute matrix shape (672 x 221) at 20% and 40% integrity
  plus a half-scale case, and a 120k-report ingestion case.  The
  headline numbers are the float32-vs-float64 Algorithm 1 speedup at
  672 x 221 / 20% and the vectorized-vs-scalar ingestion speedup.
* ``smoke=True`` — a seconds-fast configuration for CI: small matrices,
  few sweeps, a small ingestion case, same record schema and the same
  equivalence assertions.

The ``sharded`` suite (schema 4) benchmarks the metropolitan path: a
monolithic Algorithm 1 solve of the full shanghai-inner-like matrix
(672 x 5,812 at 20% integrity) against
:class:`repro.scale.ShardedCompleter`'s multilevel tiled solve, plus a
million-report columnar ingestion run through
:class:`repro.scale.ShardedStreamingEstimator`.  Its headline numbers —
sharded-vs-monolithic speedup and NMAE delta — are recorded under the
payload's top-level ``sharded`` key and gated by
``benchmarks/perf/test_bench_sharded.py`` against the committed
baseline.

A committed baseline can gate regressions: :func:`compare_payloads`
diffs two reports record by record and flags any tracked case whose
wall time regressed beyond :data:`REGRESSION_THRESHOLD`; the CLI's
``repro bench --compare BENCH_<date>.json`` exits non-zero on any flag
(wired into the CI perf-smoke job).

Usage::

    repro bench                 # full profile, writes BENCH_<date>.json
    repro bench --smoke         # CI profile
    repro bench --output x.json # explicit output path
    repro bench --smoke --compare BENCH_smoke.json  # regression gate

or programmatically::

    from repro.experiments.perf_bench import run_perf_bench
    report = run_perf_bench(smoke=True)
    print(report.render())
    report.write_json("BENCH_smoke.json")
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import asdict, dataclass, field
from datetime import date
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.baselines import MSSA, CorrelationKNN, NaiveKNN
from repro.core.completion import FLOAT32_RTOL, CompressiveSensingCompleter
from repro.core.tcm import TimeGrid
from repro.core.tuning import GeneticTuner
from repro.datasets.masks import random_integrity_mask
from repro.experiments.reporting import format_table
from repro.metrics.errors import nmae
from repro.probes.aggregation import aggregate_reports
from repro.probes.mapmatch import MapMatcher
from repro.probes.report import ReportBatch
from repro.roadnet.generators import grid_city
from repro.utils.parallel import available_workers
from repro.utils.rng import ensure_rng

# Every vectorized path must match its scalar reference at least this
# tightly (max abs difference over every cell of the final output).
EQUIVALENCE_TOL = 1e-8

# Shanghai one-week TCM at 15-minute granularity: 672 slots x 221
# segments — the paper's (and the ROADMAP's) headline shape.
HEADLINE_SHAPE = (672, 221)
HEADLINE_INTEGRITY = 0.2

# A tracked case regresses when its wall time grows beyond this factor
# over the committed baseline (``repro bench --compare``).
REGRESSION_THRESHOLD = 1.5

# Records faster than this in BOTH runs are ignored by the comparison:
# sub-50ms timings are scheduler noise, not signal.
MIN_COMPARE_WALL_S = 0.05

# p95 latencies below this in BOTH runs are not gated: a couple of
# milliseconds of tail is thread-scheduler jitter on a shared runner.
MIN_COMPARE_P95_MS = 2.0


@dataclass(frozen=True)
class BenchCase:
    """One (matrix shape, integrity) workload."""

    m: int
    n: int
    integrity: float

    @property
    def name(self) -> str:
        return f"{self.m}x{self.n}@{self.integrity:.2f}"


@dataclass(frozen=True)
class BenchRecord:
    """One timed run.

    ``wall_s`` is the best (minimum) of ``repeats`` timings — the
    standard way to suppress scheduler noise when the quantity of
    interest is the cost of the computation itself.
    """

    case: str
    algorithm: str
    wall_s: float
    repeats: int
    sweeps: Optional[int] = None
    objective: Optional[float] = None
    nmae_missing: Optional[float] = None
    # Serving-suite fields (schema 5); None on compute records.
    p50_ms: Optional[float] = None
    p95_ms: Optional[float] = None
    throughput_rps: Optional[float] = None


@dataclass
class BenchReport:
    """All records of one harness run plus derived summaries."""

    records: List[BenchRecord] = field(default_factory=list)
    speedups: Dict[str, float] = field(default_factory=dict)
    equivalence_max_abs_diff: Dict[str, float] = field(default_factory=dict)
    meta: Dict[str, Union[str, int, float, bool]] = field(default_factory=dict)
    sharded: Dict[str, object] = field(default_factory=dict)
    serving: Dict[str, object] = field(default_factory=dict)

    def to_payload(self) -> Dict[str, object]:
        """JSON-serializable form (schema version included).

        Schema 2 added the ingestion suite and the scalar-reference
        baseline records.  Schema 3 adds the ``backend`` field to every
        record (absent means ``"numpy"``), so comparisons accept
        schema-2 baselines unchanged.  Schema 4 adds the top-level
        ``sharded`` summary (metropolitan sharded-vs-monolithic speedup,
        accuracy delta, and streaming ingestion throughput) alongside
        the suite's ``cs-monolithic`` / ``cs-sharded`` records; older
        baselines simply lack the key.  Schema 5 adds the serving-load
        suite: per-record ``p50_ms``/``p95_ms``/``throughput_rps``
        (``None`` on compute records) and the top-level ``serving``
        summary; the p95 columns join the ``--compare`` gate.  Schema 6
        drops the per-record ``backend`` field: Algorithm 1 has one
        kernel, timed as ``cs-f64``/``cs-f32``, and records are matched
        on (case, algorithm) alone.
        """
        return {
            "schema": 6,
            "meta": self.meta,
            "records": [asdict(r) for r in self.records],
            "speedups": self.speedups,
            "equivalence_max_abs_diff": self.equivalence_max_abs_diff,
            "equivalence_tol": EQUIVALENCE_TOL,
            "sharded": self.sharded,
            "serving": self.serving,
        }

    def write_json(self, path: Union[str, Path]) -> Path:
        out = Path(path)
        out.write_text(json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n")
        return out

    def render_sharded(self) -> List[str]:
        """Human-readable lines for the ``sharded`` summary (if run)."""
        if not self.sharded:
            return []
        lines = [
            f"sharded: {self.sharded['case']} over "
            f"{self.sharded['shards']} shards (halo "
            f"{self.sharded['halo']}): {self.sharded['speedup']:.2f}x vs "
            f"monolithic, NMAE delta {self.sharded['nmae_delta']:.4f}"
        ]
        ingest = self.sharded.get("ingestion")
        if isinstance(ingest, dict):
            lines.append(
                f"sharded ingestion: {ingest['reports']:,} reports in "
                f"{ingest['wall_s']:.2f}s "
                f"({ingest['reports_per_s']:,.0f}/s), "
                f"{ingest['recompletions']} re-completions, "
                f"{ingest['recompletions_skipped']} skipped"
            )
        return lines

    def render_serving(self) -> List[str]:
        """Human-readable lines for the serving-suite records (if run)."""
        lines = []
        for r in self.records:
            if r.p95_ms is None or r.throughput_rps is None:
                continue
            lines.append(
                f"serving {r.case}/{r.algorithm}: "
                f"p50 {r.p50_ms:.3f} ms, p95 {r.p95_ms:.3f} ms, "
                f"{r.throughput_rps:,.0f} req/s"
            )
        return lines

    def render(self) -> str:
        headers = [
            "Case",
            "Algorithm",
            "Wall (s)",
            "Sweeps",
            "NMAE (missing)",
        ]
        rows = []
        for r in self.records:
            rows.append(
                [
                    r.case,
                    r.algorithm,
                    f"{r.wall_s:.4f}",
                    "-" if r.sweeps is None else str(r.sweeps),
                    "-" if r.nmae_missing is None else f"{r.nmae_missing:.4f}",
                ]
            )
        table = format_table(headers, rows, title="Performance benchmark")
        lines = [table, ""]
        for key, speedup in self.speedups.items():
            if key.startswith("sharded-"):
                continue  # render_sharded() owns these lines
            diff = self.equivalence_max_abs_diff.get(key)
            suffix = "" if diff is None else f" (max abs output diff {diff:.2e})"
            lines.append(
                f"{key}: fast path vs reference speedup {speedup:.1f}x{suffix}"
            )
        lines.extend(self.render_sharded())
        lines.extend(self.render_serving())
        return "\n".join(lines)


def default_cases(smoke: bool = False) -> List[BenchCase]:
    """The benchmark workload grid for a profile."""
    if smoke:
        return [BenchCase(96, 40, 0.3)]
    hm, hn = HEADLINE_SHAPE
    return [
        BenchCase(hm, hn, HEADLINE_INTEGRITY),
        BenchCase(hm, hn, 0.4),
        BenchCase(hm // 2, hn // 2, HEADLINE_INTEGRITY),
    ]


def _make_truth(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """A speed-like low-rank-plus-noise matrix (km/h scale).

    Rank-4 structure mimics the few dominant eigenflows of a real TCM
    (Section 3.2); the noise floor keeps the completion non-trivial.
    """
    base = rng.standard_normal((m, 4)) @ rng.standard_normal((4, n))
    noise = rng.standard_normal((m, n))
    return 35.0 + 4.0 * base + 0.5 * noise


def _time_best(fn: Callable[[], object], repeats: int) -> Tuple[float, object]:
    """Minimum wall time over ``repeats`` runs and the last result."""
    best = float("inf")
    result: object = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def default_ingestion_reports(smoke: bool = False) -> int:
    """Report count of the ingestion case (paper scale unless smoke)."""
    return 5_000 if smoke else 120_000


def _make_probe_workload(
    num_reports: int, rng: np.random.Generator
) -> Tuple[MapMatcher, ReportBatch, TimeGrid]:
    """A synthetic day of probe reports over a mid-size grid city.

    Positions are uniform over the (padded) network extent, so some
    reports fall outside every candidate ring; speeds span idle to
    highway so the aggregation's stationary filter has work to do;
    half the reports carry a GPS heading, half do not.
    """
    network = grid_city(8, 8, block_m=250.0, seed=0)
    x0, y0, x1, y1 = network.bounding_box()
    pad = 120.0
    xs = rng.uniform(x0 - pad, x1 + pad, num_reports)
    ys = rng.uniform(y0 - pad, y1 + pad, num_reports)
    times = rng.uniform(0.0, 86_400.0, num_reports)
    speeds = rng.uniform(0.0, 70.0, num_reports)
    headings = rng.uniform(0.0, 360.0, num_reports)
    headings[rng.random(num_reports) < 0.5] = np.nan
    vehicles = rng.integers(0, max(1, num_reports // 40), num_reports)
    batch = ReportBatch.from_columns(
        vehicles, times, xs, ys, speeds, headings_deg=headings
    )
    grid = TimeGrid.over_days(1.0, 900.0)
    return MapMatcher(network), batch, grid


def _run_ingestion_suite(
    report: BenchReport,
    num_reports: int,
    repeats: int,
    rng: np.random.Generator,
    strict: bool,
) -> None:
    """Time vectorized vs scalar map-match + aggregation, check equality.

    The scalar references are timed once (they are the slow side by an
    order of magnitude; best-of repetition buys nothing there).
    """
    case = f"ingest-{num_reports // 1000}k"
    matcher, batch, grid = _make_probe_workload(num_reports, rng)
    segment_ids = matcher.network.segment_ids

    mm_wall, matched = _time_best(
        lambda: matcher.match_batch(batch), repeats
    )
    mm_wall_ref, matched_ref = _time_best(
        lambda: matcher.match_batch(batch, method="scalar"), 1
    )
    assert isinstance(matched, ReportBatch)
    assert isinstance(matched_ref, ReportBatch)
    mm_diff = float(
        np.abs(matched.segment_ids - matched_ref.segment_ids).max(initial=0)
    )
    match_rate = float(np.mean(matched.segment_ids >= 0))
    report.records.append(
        BenchRecord(case, "mapmatch-vectorized", mm_wall, repeats)
    )
    report.records.append(BenchRecord(case, "mapmatch-scalar", mm_wall_ref, 1))

    agg_wall, tcm = _time_best(
        lambda: aggregate_reports(matched, grid, segment_ids), repeats
    )
    agg_wall_ref, tcm_ref = _time_best(
        lambda: aggregate_reports(matched, grid, segment_ids, method="scalar"),
        1,
    )
    agg_diff = float(np.abs(tcm.values - tcm_ref.values).max())  # type: ignore[union-attr]
    if not np.array_equal(tcm.mask, tcm_ref.mask):  # type: ignore[union-attr]
        agg_diff = float("inf")
    report.records.append(
        BenchRecord(case, "aggregate-bincount", agg_wall, repeats)
    )
    report.records.append(BenchRecord(case, "aggregate-scalar", agg_wall_ref, 1))

    report.speedups[f"{case}-mapmatch"] = mm_wall_ref / mm_wall
    report.speedups[f"{case}-aggregate"] = agg_wall_ref / agg_wall
    report.speedups[f"{case}-pipeline"] = (mm_wall_ref + agg_wall_ref) / (
        mm_wall + agg_wall
    )
    report.equivalence_max_abs_diff[f"{case}-mapmatch"] = mm_diff
    report.equivalence_max_abs_diff[f"{case}-aggregate"] = agg_diff
    report.meta[f"{case}-match-rate"] = round(match_rate, 4)
    if strict and (mm_diff > 0 or agg_diff > EQUIVALENCE_TOL):
        raise RuntimeError(
            f"ingestion vectorized/scalar mismatch on {case}: "
            f"map-match diff {mm_diff:g}, aggregation diff {agg_diff:.3e}"
        )


def default_sharded_reports(smoke: bool = False) -> int:
    """Report count of the sharded streaming-ingestion case."""
    return 20_000 if smoke else 1_000_000


def _run_sharded_suite(
    report: BenchReport,
    smoke: bool,
    seed: int,
    max_workers: Optional[int],
    num_reports: int,
    rng: np.random.Generator,
) -> None:
    """Benchmark the metropolitan sharded path against the monolith.

    Full profile: the shanghai-inner-like network (5,812 segments), a
    one-week 15-minute truth matrix at 20% integrity, a 16-tile grid
    partition with a 1-hop halo, and a million-report columnar stream.
    Smoke swaps in the 221-segment downtown network with the same
    record/summary schema.  Each side is timed once — the monolithic
    metro solve is far too slow to repeat, and at these wall times
    scheduler noise is negligible.

    The monolithic reference runs the paper's full
    :data:`~repro.core.completion.PAPER_ITERATIONS` sweep budget —
    exactly what ``TrafficEstimator`` / ``repro estimate`` spend on this
    matrix by default — while the sharded side spends its multilevel
    budget (5 city-wide seed sweeps + 8 warm per-shard sweeps).  The
    speedup is therefore the end-to-end estimator replacement ratio,
    not a per-sweep kernel comparison; the accuracy cost of the smaller
    budget is exactly what ``nmae_delta`` records.

    No equivalence assertion here: the multilevel regime trades a
    bounded accuracy delta for wall clock by design.  The delta is
    *recorded* (``sharded.nmae_delta``) and gated from the committed
    baseline by ``benchmarks/perf/test_bench_sharded.py``.
    """
    from repro.core.completion import PAPER_ITERATIONS
    from repro.core.tcm import TrafficConditionMatrix
    from repro.roadnet.generators import shanghai_downtown_like, shanghai_inner_like
    from repro.scale import GridPartitioner, ShardedCompleter, ShardedStreamingEstimator

    network = shanghai_downtown_like() if smoke else shanghai_inner_like()
    slots = 96 if smoke else 672
    num_shards = 4 if smoke else 16
    halo = 1
    sweeps = 20 if smoke else PAPER_ITERATIONS
    n = network.num_segments
    case = f"sharded-{slots}x{n}@{HEADLINE_INTEGRITY:.2f}"

    truth = _make_truth(slots, n, rng)
    mask = random_integrity_mask((slots, n), HEADLINE_INTEGRITY, seed=rng)
    measured = np.where(mask, truth, 0.0)
    missing = ~mask
    tcm = TrafficConditionMatrix(
        measured,
        mask,
        grid=TimeGrid(0.0, 900.0, slots),
        segment_ids=network.segment_ids,
    )

    mono = CompressiveSensingCompleter(
        rank=2,
        lam=10.0,
        iterations=sweeps,
        center=True,
        clip_min=0.0,
        clip_max=150.0,
        max_workers=max_workers,
        seed=seed,
    )
    mono_wall, mono_result = _time_best(
        lambda: mono.complete(measured, mask), 1
    )
    mono_nmae = nmae(truth, mono_result.estimate, missing)  # type: ignore[union-attr]
    report.records.append(
        BenchRecord(
            case=case,
            algorithm="cs-monolithic",
            wall_s=mono_wall,
            repeats=1,
            sweeps=mono_result.iterations_run,  # type: ignore[union-attr]
            objective=float(mono_result.objective),  # type: ignore[union-attr]
            nmae_missing=mono_nmae,
        )
    )

    shards = GridPartitioner(num_shards, halo=halo).partition(network)
    completer = ShardedCompleter(
        rank=2,
        lam=10.0,
        iterations=sweeps,
        seed_iterations=5,
        warm_iterations=8,
        center=True,
        clip_min=0.0,
        clip_max=150.0,
        max_workers=max_workers,
        seed=seed,
    )
    sharded_wall, sharded_result = _time_best(
        lambda: completer.complete(tcm, shards), 1
    )
    sharded_nmae = nmae(truth, sharded_result.estimate, missing)  # type: ignore[union-attr]
    report.records.append(
        BenchRecord(
            case=case,
            algorithm="cs-sharded",
            wall_s=sharded_wall,
            repeats=1,
            sweeps=5 + 8,  # multilevel budget: seed + warm sweeps
            nmae_missing=sharded_nmae,
        )
    )

    speedup = mono_wall / sharded_wall
    report.speedups[case] = speedup
    report.sharded = {
        "case": case,
        "segments": n,
        "slots": slots,
        "integrity": HEADLINE_INTEGRITY,
        "shards": len(shards),
        "halo": halo,
        "mode": sharded_result.mode,  # type: ignore[union-attr]
        "wall_monolithic_s": mono_wall,
        "wall_sharded_s": sharded_wall,
        "stitch_s": sharded_result.stitch_s,  # type: ignore[union-attr]
        "speedup": speedup,
        "nmae_monolithic": mono_nmae,
        "nmae_sharded": sharded_nmae,
        "nmae_delta": abs(sharded_nmae - mono_nmae),
    }

    # ------------------------------------------------------------------
    # Columnar streaming ingestion: num_reports probe reports, already
    # map-matched (segment ids attached), pushed through the sharded
    # sliding-window estimator in one batch.
    day_s = 86_400.0
    times = np.sort(rng.uniform(0.0, day_s, num_reports))
    segs = np.asarray(network.segment_ids, dtype=np.int64)[
        rng.integers(0, n, num_reports)
    ]
    batch = ReportBatch.from_columns(
        rng.integers(0, max(1, num_reports // 50), num_reports),
        times,
        np.zeros(num_reports),
        np.zeros(num_reports),
        rng.uniform(5.0, 70.0, num_reports),
        segment_ids=segs,
        assume_sorted=True,
    )
    streamer = ShardedStreamingEstimator(
        network,
        shards=num_shards,
        halo=0,
        slot_s=900.0,
        window_slots=24,
        warm_iterations=4,
        cold_iterations=8,
        seed=seed,
    )
    start = time.perf_counter()
    streamer.ingest_batch(batch)
    streamer.flush()
    ingest_wall = time.perf_counter() - start
    ingest_case = f"sharded-ingest-{num_reports // 1000}k"
    report.records.append(
        BenchRecord(
            case=ingest_case,
            algorithm="sharded-stream-ingest",
            wall_s=ingest_wall,
            repeats=1,
        )
    )
    report.sharded["ingestion"] = {
        "reports": num_reports,
        "wall_s": ingest_wall,
        "reports_per_s": num_reports / ingest_wall,
        "slots_closed": len(streamer.estimates),
        "recompletions": streamer.recompletions,
        "recompletions_skipped": streamer.recompletions_skipped,
        "shards": streamer.num_shards,
    }


def _run_serving_suite(
    report: BenchReport,
    smoke: bool,
    seed: int,
    store: Optional[object] = None,
) -> None:
    """Benchmark the ``apps/`` query layer under concurrency (schema 5).

    Each (app, concurrency) level becomes one record —
    ``serving-<app>`` / ``c<NN>`` — carrying p50/p95 latency and
    sustained throughput.  The serving world (network + completed
    estimate) is a content-addressed store step when ``store`` is an
    :class:`~repro.experiments.store.ArtifactStore`, so warm bench runs
    measure queries against a cached estimate rather than rebuilding it.
    """
    from repro.experiments.serving_bench import (
        build_serving_world,
        default_serving_config,
        run_serving_bench,
    )

    config = default_serving_config(smoke=smoke, seed=seed)
    world = None
    world_hit: Optional[bool] = None
    if store is not None:
        step = store.get_or_build(  # type: ignore[attr-defined]
            "serving_world", config, lambda: build_serving_world(config)
        )
        world = step.value
        world_hit = step.hit
    results = run_serving_bench(config, world=world)
    for res in results:
        report.records.append(
            BenchRecord(
                case=f"serving-{res.app}",
                algorithm=f"c{res.concurrency:02d}",
                wall_s=res.wall_s,
                repeats=1,
                p50_ms=res.p50_ms,
                p95_ms=res.p95_ms,
                throughput_rps=res.throughput_rps,
            )
        )
    report.serving = {
        "apps": sorted({res.app for res in results}),
        "concurrency_levels": list(config.concurrency_levels),
        "requests_per_level": config.requests_per_level,
        "world": {
            "rows": config.rows,
            "cols": config.cols,
            "days": config.days,
            "integrity": config.integrity,
            "store_hit": world_hit,
        },
        "peak_throughput_rps": {
            app: max(
                res.throughput_rps for res in results if res.app == app
            )
            for app in sorted({res.app for res in results})
        },
    }


def _run_completion_suite(
    report: BenchReport,
    case: BenchCase,
    truth: np.ndarray,
    measured: np.ndarray,
    mask: np.ndarray,
    sweeps: int,
    n_repeats: int,
    max_workers: Optional[int],
    seed: int,
    strict: bool,
) -> None:
    """Time Algorithm 1 in float64 and float32 on one case.

    Records ``cs-f64`` and ``cs-f32``; the float32 estimate must stay
    within :data:`FLOAT32_RTOL` of the float64 one, relative to the
    float64 estimate's magnitude.  The float32-over-float64 speedup and
    the max abs difference between the two estimates are keyed
    ``<case>/f32``.
    """
    missing = ~mask
    estimates: Dict[str, np.ndarray] = {}
    walls: Dict[str, float] = {}
    for tag, dtype in (("f64", np.float64), ("f32", np.float32)):
        completer = CompressiveSensingCompleter(
            rank=2,
            lam=10.0,
            iterations=sweeps,
            dtype=dtype,
            max_workers=max_workers,
            seed=seed,
        )
        wall, result = _time_best(
            lambda: completer.complete(measured, mask), n_repeats
        )
        estimate = np.asarray(result.estimate, dtype=np.float64)  # type: ignore[union-attr]
        estimates[tag], walls[tag] = estimate, wall
        report.records.append(
            BenchRecord(
                case=case.name,
                algorithm=f"cs-{tag}",
                wall_s=wall,
                repeats=n_repeats,
                sweeps=result.iterations_run,  # type: ignore[union-attr]
                objective=float(result.objective),  # type: ignore[union-attr]
                nmae_missing=nmae(truth, estimate, missing),
            )
        )
    key = f"{case.name}/f32"
    diff = float(np.abs(estimates["f32"] - estimates["f64"]).max())
    report.equivalence_max_abs_diff[key] = diff
    report.speedups[key] = walls["f64"] / walls["f32"]
    tol = FLOAT32_RTOL * max(1.0, float(np.abs(estimates["f64"]).max()))
    if strict and diff > tol:
        raise RuntimeError(
            f"float32 estimate deviates from the float64 estimate by "
            f"{diff:.3e} (> {tol:.3e}) on {case.name}"
        )


def run_perf_bench(
    cases: Optional[Sequence[BenchCase]] = None,
    smoke: bool = False,
    seed: int = 0,
    repeats: Optional[int] = None,
    iterations: Optional[int] = None,
    include_tune: bool = True,
    include_baselines: bool = True,
    include_ingestion: bool = True,
    ingestion_reports: Optional[int] = None,
    include_sharded: bool = True,
    sharded_reports: Optional[int] = None,
    include_serving: bool = True,
    serving_store: Optional[object] = None,
    max_workers: Optional[int] = None,
    strict: bool = True,
) -> BenchReport:
    """Time the hot paths and check their equivalence contracts.

    Parameters
    ----------
    cases:
        Workloads to run (default :func:`default_cases` for the profile).
    smoke:
        CI profile: small matrices and few sweeps, same schema.
    seed:
        Master seed; every case derives deterministic data/mask streams.
    repeats:
        Timed repetitions per measurement (best-of); defaults to 1 for
        smoke and 3 otherwise.
    iterations:
        ALS sweeps per completion (defaults 20 smoke / 60 full).
    include_tune, include_baselines:
        Also time a small Algorithm 2 run and the baselines (the KNNs
        plus MSSA and the scalar references of the vectorized ones).
    include_ingestion, ingestion_reports:
        Also time the probe ingestion pipeline (vectorized vs scalar
        map-matching and aggregation) on ``ingestion_reports`` reports
        (default :func:`default_ingestion_reports` for the profile).
    include_sharded, sharded_reports:
        Also run the metropolitan sharded suite: monolithic vs tiled
        completion of the metro-scale matrix plus a ``sharded_reports``
        columnar stream through the sharded sliding-window estimator
        (default :func:`default_sharded_reports` for the profile).
    include_serving, serving_store:
        Also run the serving-load suite: the ``apps/`` query layer
        driven at increasing concurrency, p50/p95 latency + throughput
        per level (:mod:`repro.experiments.serving_bench`).  With
        ``serving_store`` set to an
        :class:`~repro.experiments.store.ArtifactStore`, the serving
        world is loaded from / persisted into the store.
    max_workers:
        Forwarded to the completer/tuner (restart + fitness pools).
    strict:
        Raise ``RuntimeError`` when the float32 estimate departs from
        float64 beyond :data:`FLOAT32_RTOL` (relative), or a vectorized
        ingestion/baseline path from its scalar reference beyond
        :data:`EQUIVALENCE_TOL`.

    Returns
    -------
    BenchReport
        Records, per-case float32-vs-float64 speedups, and per-case
        max-abs-difference between the float32 and float64 estimates.
    """
    case_list = list(cases) if cases is not None else default_cases(smoke)
    n_repeats = repeats if repeats is not None else (1 if smoke else 3)
    if n_repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {n_repeats}")
    sweeps = iterations if iterations is not None else (20 if smoke else 60)

    report = BenchReport(
        meta={
            "date": date.today().isoformat(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": available_workers(),
            "smoke": smoke,
            "seed": seed,
            "repeats": n_repeats,
            "iterations": sweeps,
        }
    )

    rng = ensure_rng(seed)
    for case in case_list:
        truth = _make_truth(case.m, case.n, rng)
        mask = random_integrity_mask((case.m, case.n), case.integrity, seed=rng)
        measured = np.where(mask, truth, 0.0)
        missing = ~mask
        _run_completion_suite(
            report,
            case,
            truth,
            measured,
            mask,
            sweeps=sweeps,
            n_repeats=n_repeats,
            max_workers=max_workers,
            seed=seed,
            strict=strict,
        )

        if include_baselines:
            baseline_estimates: Dict[str, np.ndarray] = {}
            baseline_walls: Dict[str, float] = {}
            for name, baseline in (
                ("naive-knn", NaiveKNN(k=4)),
                ("correlation-knn", CorrelationKNN(k=4)),
                ("correlation-knn-scalar", CorrelationKNN(k=4, method="scalar")),
                ("mssa", MSSA(solver="truncated", max_iterations=5)),
                (
                    "mssa-scalar",
                    MSSA(solver="truncated", max_iterations=5, method="scalar"),
                ),
            ):
                wall, estimate = _time_best(
                    lambda: baseline.complete(measured, mask), n_repeats
                )
                baseline_estimates[name] = np.asarray(estimate)
                baseline_walls[name] = wall
                report.records.append(
                    BenchRecord(
                        case=case.name,
                        algorithm=name,
                        wall_s=wall,
                        repeats=n_repeats,
                        nmae_missing=nmae(truth, np.asarray(estimate), missing),
                    )
                )
            for name in ("correlation-knn", "mssa"):
                diff = float(
                    np.abs(
                        baseline_estimates[name]
                        - baseline_estimates[f"{name}-scalar"]
                    ).max()
                )
                key = f"{case.name}-{name}"
                report.equivalence_max_abs_diff[key] = diff
                report.speedups[key] = (
                    baseline_walls[f"{name}-scalar"] / baseline_walls[name]
                )
                if strict and diff > EQUIVALENCE_TOL:
                    raise RuntimeError(
                        f"baseline {name!r} vectorized path deviates from its "
                        f"scalar reference by {diff:.3e} "
                        f"(> {EQUIVALENCE_TOL:.0e}) on {case.name}"
                    )

        if include_tune:
            tuner = GeneticTuner(
                rank_bounds=(1, 6),
                population_size=5 if smoke else 8,
                generations=2,
                completer_iterations=max(5, sweeps // 3),
                stall_generations=None,
                max_workers=max_workers,
                seed=seed,
            )
            wall, tuned = _time_best(lambda: tuner.tune(measured, mask), 1)
            report.records.append(
                BenchRecord(
                    case=case.name,
                    algorithm="ga-tune",
                    wall_s=wall,
                    repeats=1,
                    sweeps=tuned.generations_run,  # type: ignore[union-attr]
                    objective=tuned.fitness,  # type: ignore[union-attr]
                )
            )

    if include_ingestion:
        num_reports = (
            ingestion_reports
            if ingestion_reports is not None
            else default_ingestion_reports(smoke)
        )
        _run_ingestion_suite(report, num_reports, n_repeats, rng, strict)

    if include_sharded:
        _run_sharded_suite(
            report,
            smoke=smoke,
            seed=seed,
            max_workers=max_workers,
            num_reports=(
                sharded_reports
                if sharded_reports is not None
                else default_sharded_reports(smoke)
            ),
            rng=rng,
        )

    if include_serving:
        _run_serving_suite(report, smoke=smoke, seed=seed, store=serving_store)

    return report


def default_output_name(today: Optional[date] = None) -> str:
    """The conventional committed artifact name, ``BENCH_<date>.json``."""
    stamp = (today or date.today()).isoformat()
    return f"BENCH_{stamp}.json"


@dataclass(frozen=True)
class BenchComparison:
    """Outcome of diffing a bench run against a committed baseline.

    ``regressions`` lists the tracked (case, algorithm) pairs whose
    wall time grew beyond the threshold; ``lines`` carries one rendered
    row per compared record.  ``ok`` gates CI.
    """

    regressions: List[str]
    lines: List[str]
    threshold: float
    compared: int
    skipped: int

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        header = (
            f"bench comparison: {self.compared} record(s) compared, "
            f"{self.skipped} below the {MIN_COMPARE_WALL_S:.2f}s noise floor "
            f"skipped, threshold {self.threshold:.2f}x"
        )
        body = list(self.lines)
        if self.regressions:
            body.append("REGRESSIONS:")
            body.extend(f"  {r}" for r in self.regressions)
        else:
            body.append("no regressions")
        return "\n".join([header, *body])


def _records_by_key(
    payload: Dict[str, object],
) -> Dict[Tuple[str, str], Dict[str, Optional[float]]]:
    """Index records by (case, algorithm).

    Schema 3-5 payloads also carry a ``backend`` field; it is ignored.
    Their ``cs-f64``/``cs-f32`` rows (backend ``"numpy-ws"``) timed the
    kernel that is now the only one, and no committed payload repeats a
    (case, algorithm) pair across backends.  Each value carries
    ``wall_s`` plus the schema-5 serving columns (``p95_ms``, ``None``
    on compute records and pre-5 baselines).
    """
    records = payload.get("records")
    if not isinstance(records, list):
        raise ValueError("bench payload has no 'records' list")
    out: Dict[Tuple[str, str], Dict[str, Optional[float]]] = {}
    for rec in records:
        key = (str(rec["case"]), str(rec["algorithm"]))
        p95 = rec.get("p95_ms")
        out[key] = {
            "wall_s": float(rec["wall_s"]),
            "p95_ms": None if p95 is None else float(p95),
        }
    return out


def compare_payloads(
    current: Dict[str, object],
    baseline: Dict[str, object],
    threshold: float = REGRESSION_THRESHOLD,
) -> BenchComparison:
    """Diff two bench payloads; flag wall-clock regressions.

    Records are matched on (case, algorithm); records present in only
    one payload are ignored (suites grow over time).  A
    match where both wall times sit below :data:`MIN_COMPARE_WALL_S` is
    skipped — at that scale the timer measures the scheduler, not the
    code.  Serving records (those carrying ``p95_ms`` on both sides)
    gate their p95 tail latency instead of their wall clock, with the
    same threshold, when either side reports at least
    :data:`MIN_COMPARE_P95_MS` (a sub-2ms tail is scheduler jitter);
    their wall ratio is rendered for context only.
    """
    if threshold <= 1.0:
        raise ValueError(f"threshold must exceed 1.0, got {threshold}")
    cur = _records_by_key(current)
    base = _records_by_key(baseline)
    lines: List[str] = []
    regressions: List[str] = []
    skipped = 0
    compared = 0
    for key in cur:
        if key not in base:
            continue
        cur_wall = cur[key]["wall_s"]
        base_wall = base[key]["wall_s"]
        assert cur_wall is not None and base_wall is not None
        label = f"{key[0]}/{key[1]}"
        cur_p95, base_p95 = cur[key]["p95_ms"], base[key]["p95_ms"]
        ratio = cur_wall / max(base_wall, 1e-12)
        line = f"{label}: {cur_wall:.4f}s vs baseline {base_wall:.4f}s ({ratio:.2f}x)"
        if cur_p95 is not None and base_p95 is not None:
            # A serving record: gate on tail latency only.  Its wall
            # clock is a few dozen requests of scheduler-dependent
            # queueing — far too jittery to diff — while p95 is the
            # claim the suite exists to hold.  The wall ratio stays in
            # the rendered line for context.
            if max(cur_p95, base_p95) < MIN_COMPARE_P95_MS:
                skipped += 1
                continue
            compared += 1
            p95_ratio = cur_p95 / max(base_p95, 1e-12)
            line += f", p95 {cur_p95:.2f}ms vs {base_p95:.2f}ms ({p95_ratio:.2f}x)"
            lines.append(line)
            if p95_ratio > threshold:
                regressions.append(line)
            continue
        if cur_wall < MIN_COMPARE_WALL_S and base_wall < MIN_COMPARE_WALL_S:
            skipped += 1
            continue
        compared += 1
        lines.append(line)
        if ratio > threshold:
            regressions.append(line)
    return BenchComparison(
        regressions=regressions,
        lines=lines,
        threshold=threshold,
        compared=compared,
        skipped=skipped,
    )


def compare_with_baseline(
    report: BenchReport,
    baseline_path: Union[str, Path],
    threshold: float = REGRESSION_THRESHOLD,
) -> BenchComparison:
    """Diff a fresh report against a committed ``BENCH_*.json``."""
    payload = json.loads(Path(baseline_path).read_text())
    return compare_payloads(report.to_payload(), payload, threshold=threshold)
