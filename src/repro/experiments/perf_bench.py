"""Micro-kernel benchmark harness (``repro bench``).

Times the kernels behind the paper's runtime claim (Table 2) on
synthetic low-rank matrices: Algorithm 1 in float64 (``cs-f64``) and
float32 (``cs-f32``), the naive KNN, correlation-KNN and MSSA baselines,
and Algorithm 2 GA tuning, across matrix sizes and integrities.  It
checks that the float32 estimate stays within
:data:`repro.core.completion.FLOAT32_RTOL` of float64 (relative to its
magnitude) and emits a machine-readable ``BENCH_*.json``.  Agreement of
the vectorized paths with their loop references is pinned by the tier-1
tests (``tests/*_oracles.py``), not timed here.

The pipeline end to end — map matching, aggregation, the sharded stream
and batch, and the app queries — is measured at metro scale by
``benchmarks/e2e``, which is also the CI performance gate.

Two profiles:

* ``smoke=False`` (default) — the paper-scale workload: the Shanghai
  one-week 15-minute matrix shape (672 x 221) at 20% and 40% integrity
  plus a half-scale case.  The headline number is the float32-vs-float64
  Algorithm 1 speedup at 672 x 221 / 20%.
* ``smoke=True`` — a seconds-fast configuration: a small matrix, few
  sweeps, the same record schema and the same float32 check.

Both profiles add one sparse-regime case (672 x 450 at 3%), which
Algorithm 1's kernel binds in its sparse layout; the others bind the
dense one.

:func:`compare_payloads` diffs two reports record by record and flags
any tracked case whose wall time regressed beyond
:data:`REGRESSION_THRESHOLD`.  ``repro bench --compare BENCH_<date>.json``
exits 1 on a flag, and 2 when the comparison cannot be made: the two
runs saw different CPU counts, or no record was compared.

Usage::

    repro bench                 # full profile, writes BENCH_<date>.json
    repro bench --smoke         # seconds-fast profile
    repro bench --output x.json # explicit output path
    repro bench --compare BENCH_2026-08-09.json  # same-runner diff

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
from repro.core.tuning import GeneticTuner
from repro.datasets.masks import random_integrity_mask
from repro.experiments.reporting import format_table
from repro.metrics.errors import nmae
from repro.utils.parallel import available_workers
from repro.utils.rng import ensure_rng

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


@dataclass(frozen=True)
class BenchCase:
    """One (matrix shape, integrity) workload."""

    m: int
    n: int
    integrity: float

    @property
    def name(self) -> str:
        return f"{self.m}x{self.n}@{self.integrity:.2f}"


#: A metro-week-shard-sized case (672 slots x 450 segments, 3%
#: observed) that Algorithm 1's kernel binds in its sparse layout.
SPARSE_CASE = BenchCase(672, 450, 0.03)


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


@dataclass
class BenchReport:
    """All records of one harness run plus derived summaries."""

    records: List[BenchRecord] = field(default_factory=list)
    speedups: Dict[str, float] = field(default_factory=dict)
    equivalence_max_abs_diff: Dict[str, float] = field(default_factory=dict)
    meta: Dict[str, Union[str, int, float, bool]] = field(default_factory=dict)

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
        on (case, algorithm) alone.  Schema 7 is the micro-kernel suite
        alone: no ingestion, sharded or serving records, no serving
        columns, no ``sharded``/``serving`` keys, and ``float32_rtol``
        (the bound on the ``<case>/f32`` differences) in place of the
        scalar-reference ``equivalence_tol``.
        """
        return {
            "schema": 7,
            "meta": self.meta,
            "records": [asdict(r) for r in self.records],
            "speedups": self.speedups,
            "equivalence_max_abs_diff": self.equivalence_max_abs_diff,
            "float32_rtol": FLOAT32_RTOL,
        }

    def write_json(self, path: Union[str, Path]) -> Path:
        out = Path(path)
        out.write_text(json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n")
        return out

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
            diff = self.equivalence_max_abs_diff[key]
            lines.append(
                f"{key}: float32 vs float64 speedup {speedup:.1f}x "
                f"(max abs output diff {diff:.2e})"
            )
        return "\n".join(lines)


def default_cases(smoke: bool = False) -> List[BenchCase]:
    """The benchmark workload grid for a profile.

    Both profiles end with :data:`SPARSE_CASE`, so the float32 check
    also covers the kernel's sparse layout; every other case binds the
    dense one.
    """
    if smoke:
        return [BenchCase(96, 40, 0.3), SPARSE_CASE]
    hm, hn = HEADLINE_SHAPE
    return [
        BenchCase(hm, hn, HEADLINE_INTEGRITY),
        BenchCase(hm, hn, 0.4),
        BenchCase(hm // 2, hn // 2, HEADLINE_INTEGRITY),
        SPARSE_CASE,
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


def _run_completion_suite(
    report: BenchReport,
    case: BenchCase,
    truth: np.ndarray,
    measured: np.ndarray,
    mask: np.ndarray,
    sweeps: int,
    n_repeats: int,
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
    max_workers: Optional[int] = None,
    strict: bool = True,
) -> BenchReport:
    """Time the micro-kernels and check the float32 bound.

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
        Also time a small Algorithm 2 run and the baselines (naive KNN,
        correlation-KNN and MSSA).
    max_workers:
        Forwarded to the GA tuner's fitness pool; the completions run
        serially.
    strict:
        Raise ``RuntimeError`` when the float32 estimate departs from
        float64 beyond :data:`FLOAT32_RTOL` (relative).

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
            seed=seed,
            strict=strict,
        )

        if include_baselines:
            for name, baseline in (
                ("naive-knn", NaiveKNN(k=4)),
                ("correlation-knn", CorrelationKNN(k=4)),
                ("mssa", MSSA(solver="truncated", max_iterations=5)),
            ):
                wall, estimate = _time_best(
                    lambda: baseline.complete(measured, mask), n_repeats
                )
                report.records.append(
                    BenchRecord(
                        case=case.name,
                        algorithm=name,
                        wall_s=wall,
                        repeats=n_repeats,
                        nmae_missing=nmae(truth, np.asarray(estimate), missing),
                    )
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
    row per compared record.  ``ok`` is false on any regression.
    ``cpu_counts`` holds the ``meta.cpu_count`` of the run and of the
    baseline (``None`` where a payload has no meta).
    """

    regressions: List[str]
    lines: List[str]
    threshold: float
    compared: int
    skipped: int
    cpu_counts: Tuple[object, object]

    @property
    def ok(self) -> bool:
        return not self.regressions

    @property
    def refusal(self) -> Optional[str]:
        """Why this comparison can gate nothing, or ``None``.

        Wall clocks from different CPU counts are not comparable, and a
        comparison that matched nothing above the noise floor would pass
        whatever the code did.
        """
        run_cpus, base_cpus = self.cpu_counts
        if run_cpus != base_cpus:
            return f"cpu_count differs: run {run_cpus}, baseline {base_cpus}"
        if not self.compared:
            return (
                "no record was compared: no (case, algorithm) pair matched "
                f"above the {MIN_COMPARE_WALL_S:.2f}s noise floor"
            )
        return None

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


def _walls_by_key(payload: Dict[str, object]) -> Dict[Tuple[str, str], float]:
    """Wall time per (case, algorithm).

    Schema 3-5 payloads also carry a ``backend`` field; it is ignored.
    Their ``cs-f64``/``cs-f32`` rows (backend ``"numpy-ws"``) timed the
    kernel that is now the only one, and no committed payload repeats a
    (case, algorithm) pair across backends.  The schema-5 serving
    columns are ignored too.
    """
    records = payload.get("records")
    if not isinstance(records, list):
        raise ValueError("bench payload has no 'records' list")
    return {
        (str(rec["case"]), str(rec["algorithm"])): float(rec["wall_s"])
        for rec in records
    }


def _cpu_count(payload: Dict[str, object]) -> object:
    meta = payload.get("meta")
    return meta.get("cpu_count") if isinstance(meta, dict) else None


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
    code.
    """
    if threshold <= 1.0:
        raise ValueError(f"threshold must exceed 1.0, got {threshold}")
    cur = _walls_by_key(current)
    base = _walls_by_key(baseline)
    lines: List[str] = []
    regressions: List[str] = []
    skipped = 0
    compared = 0
    for key, cur_wall in cur.items():
        if key not in base:
            continue
        base_wall = base[key]
        if cur_wall < MIN_COMPARE_WALL_S and base_wall < MIN_COMPARE_WALL_S:
            skipped += 1
            continue
        compared += 1
        ratio = cur_wall / max(base_wall, 1e-12)
        line = (
            f"{key[0]}/{key[1]}: {cur_wall:.4f}s vs baseline "
            f"{base_wall:.4f}s ({ratio:.2f}x)"
        )
        lines.append(line)
        if ratio > threshold:
            regressions.append(line)
    return BenchComparison(
        regressions=regressions,
        lines=lines,
        threshold=threshold,
        compared=compared,
        skipped=skipped,
        cpu_counts=(_cpu_count(current), _cpu_count(baseline)),
    )


def compare_with_baseline(
    report: BenchReport,
    baseline_path: Union[str, Path],
    threshold: float = REGRESSION_THRESHOLD,
) -> BenchComparison:
    """Diff a fresh report against a committed ``BENCH_*.json``."""
    payload = json.loads(Path(baseline_path).read_text())
    return compare_payloads(report.to_payload(), payload, threshold=threshold)
