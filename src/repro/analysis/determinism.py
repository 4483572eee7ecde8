"""Runtime determinism harness (``repro verify-determinism``).

The static parallel-safety rules (:mod:`repro.analysis.parallel_rules`)
argue that the parallel seams *cannot* diverge; this harness checks that
they *do not*: each check runs one parallel entry point twice — serial
(``max_workers=1``) and parallel (``max_workers=N``) — and diffs the
results **bit for bit**.  No tolerance: the repo's documented contract
(PR 2/3) is that every random decision is made before dispatch and all
aggregation is submission-ordered, which makes the parallel path
*exactly* the serial path.

Checks:

* ``completion`` — Algorithm 1 with restarts
  (:class:`repro.core.completion.CompressiveSensingCompleter`): the
  estimate matrix, winning objective, best restart index and every
  per-restart objective history must match to the last bit.
* ``tuning`` — Algorithm 2 GA search
  (:class:`repro.core.tuning.GeneticTuner`) with memoized fitness: the
  selected (rank, lambda), fitness, and full fitness history must match.
* ``sharded`` — the sharded metropolitan completion
  (:class:`repro.scale.sharded.ShardedCompleter`): the exact regime must
  reproduce monolithic completion bit-for-bit (``shards=1`` and per
  shard at ``halo=0``), and the multilevel regime must be bit-identical
  serial vs pool and under shuffled shard input order.
* ``run-all`` — the experiment battery
  (:func:`repro.experiments.runner.run_all`): every rendered block must
  be byte-identical, except the two studies whose *output* is measured
  wall-clock time (Table 2 runtimes, streaming latencies) — those are
  excluded up front rather than fuzzily compared.

``--smoke`` shrinks the workloads to CI scale (seconds); the full run
uses the ``quick`` experiment profile.  Exit status is 0 when every
check proves bit-identity and 1 otherwise, so the harness slots into
``tools/check.sh`` and CI next to the static gate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.parallel import available_workers
from repro.utils.rng import ensure_rng

__all__ = [
    "CHECKS",
    "DeterminismCheck",
    "DeterminismReport",
    "run_determinism_suite",
]

#: Battery jobs whose rendered output *is* a wall-clock measurement;
#: they differ between any two runs by nature and are excluded from the
#: run-all bit-diff.  Kept in lockstep with the ``wall_clock=True``
#: cells in ``repro.experiments.runner._battery_jobs`` (asserted by
#: tests/test_experiments_runner.py).
WALL_CLOCK_JOBS = ("runtimes", "streaming")


@dataclass(frozen=True)
class DeterminismCheck:
    """Outcome of one serial-vs-parallel double run."""

    name: str
    ok: bool
    detail: str
    elapsed_s: float

    def render(self) -> str:
        status = "ok" if self.ok else "MISMATCH"
        return f"{self.name:12s} {status:8s} {self.detail} [{self.elapsed_s:.1f}s]"


@dataclass(frozen=True)
class DeterminismReport:
    """All checks of one harness invocation."""

    checks: List[DeterminismCheck]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def render(self) -> str:
        lines = [check.render() for check in self.checks]
        verdict = (
            "serial == parallel (bit-identical)"
            if self.ok
            else "DETERMINISM VIOLATION: serial != parallel"
        )
        lines.append(verdict)
        return "\n".join(lines)


def _toy_problem(seed: int, shape: Tuple[int, int]) -> Tuple[np.ndarray, np.ndarray]:
    """A low-rank-plus-noise matrix with a 40% observation mask."""
    rng = ensure_rng(seed)
    m, n = shape
    left = rng.uniform(0.5, 1.5, size=(m, 3))
    right = rng.uniform(0.5, 1.5, size=(n, 3))
    values = left @ right.T * 20.0 + rng.normal(0.0, 0.5, size=(m, n))
    mask = rng.random((m, n)) < 0.4
    # Guarantee the validation split and completer have cells to work with.
    mask[0, :] = True
    mask[:, 0] = True
    return values, mask


def _diff_arrays(name: str, serial: np.ndarray, parallel: np.ndarray) -> str:
    if serial.shape != parallel.shape:
        return f"{name} shape differs: {serial.shape} vs {parallel.shape}"
    if serial.tobytes() == parallel.tobytes():
        return ""
    diff = np.abs(serial - parallel)
    return (
        f"{name} differs at {int(np.count_nonzero(diff))} cell(s), "
        f"max |delta| {float(diff.max()):.3e}"
    )


def check_completion(
    seed: int = 0, max_workers: Optional[int] = None, smoke: bool = False
) -> DeterminismCheck:
    """Algorithm 1 restarts: serial vs thread-pool, bit for bit.

    The kernel is double-run in float64 and float32: it reuses buffers
    across sweeps, so this is exactly where a thread-race would
    surface, and reduced precision must still be bit-identical serial
    vs pool.
    """
    from repro.core.completion import CompletionResult, CompressiveSensingCompleter

    started = time.perf_counter()
    # At least 2 so the parallel leg really runs through a pool even
    # on 1-CPU CI boxes (threads, so oversubscription is harmless).
    workers = max_workers or max(2, min(4, available_workers()))
    shape = (24, 18) if smoke else (96, 60)
    iterations = 8 if smoke else 25
    restarts = 4 if smoke else 6
    values, mask = _toy_problem(seed, shape)
    dtypes = ("float64", "float32")

    def run(pool: Optional[int], dtype: str) -> CompletionResult:
        completer = CompressiveSensingCompleter(
            rank=3,
            lam=10.0,
            iterations=iterations,
            restarts=restarts,
            dtype=dtype,
            max_workers=pool,
            seed=seed,
        )
        return completer.complete(values, mask)

    problems: List[str] = []
    for dtype in dtypes:
        serial = run(None, dtype)
        parallel = run(workers, dtype)
        detail = _diff_arrays(
            f"[{dtype}] estimate", serial.estimate, parallel.estimate
        )
        if detail:
            problems.append(detail)
        if serial.objective != parallel.objective:
            problems.append(
                f"[{dtype}] objective {serial.objective!r} "
                f"vs {parallel.objective!r}"
            )
        if serial.best_restart != parallel.best_restart:
            problems.append(f"[{dtype}] winning restart index differs")
        if serial.restart_histories != parallel.restart_histories:
            problems.append(f"[{dtype}] per-restart objective histories differ")
    ok = not problems
    return DeterminismCheck(
        name="completion",
        ok=ok,
        detail=(
            f"{restarts} restarts x {iterations} sweeps on {shape[0]}x{shape[1]}, "
            f"1 vs {workers} workers, " + ", ".join(dtypes)
            if ok
            else "; ".join(problems)
        ),
        elapsed_s=time.perf_counter() - started,
    )


def check_tuning(
    seed: int = 0, max_workers: Optional[int] = None, smoke: bool = False
) -> DeterminismCheck:
    """Algorithm 2 GA tuning: serial vs thread-pool, bit for bit."""
    from repro.core.tuning import GeneticTuner, TuningResult

    started = time.perf_counter()
    # At least 2 so the parallel leg really runs through a pool even
    # on 1-CPU CI boxes (threads, so oversubscription is harmless).
    workers = max_workers or max(2, min(4, available_workers()))
    shape = (24, 18) if smoke else (60, 40)
    population = 6 if smoke else 10
    generations = 2 if smoke else 4
    values, mask = _toy_problem(seed + 1, shape)

    def run(pool: Optional[int]) -> TuningResult:
        tuner = GeneticTuner(
            rank_bounds=(1, 4),
            lam_bounds=(0.1, 100.0),
            population_size=population,
            generations=generations,
            completer_iterations=6 if smoke else 15,
            max_workers=pool,
            seed=seed,
        )
        return tuner.tune(values, mask)

    serial = run(None)
    parallel = run(workers)
    problems: List[str] = []
    if (serial.rank, serial.lam) != (parallel.rank, parallel.lam):
        problems.append(
            f"selected (r, lambda) differ: "
            f"({serial.rank}, {serial.lam!r}) vs ({parallel.rank}, {parallel.lam!r})"
        )
    if serial.fitness != parallel.fitness:
        problems.append(f"fitness {serial.fitness!r} vs {parallel.fitness!r}")
    if serial.history != parallel.history:
        problems.append("fitness histories differ")
    if [(c.rank, c.lam, c.fitness) for c in serial.population] != [
        (c.rank, c.lam, c.fitness) for c in parallel.population
    ]:
        problems.append("final populations differ")
    ok = not problems
    return DeterminismCheck(
        name="tuning",
        ok=ok,
        detail=(
            f"pop {population} x {generations} generations on "
            f"{shape[0]}x{shape[1]}, 1 vs {workers} workers"
            if ok
            else "; ".join(problems)
        ),
        elapsed_s=time.perf_counter() - started,
    )


def check_run_all(
    seed: int = 0, max_workers: Optional[int] = None, smoke: bool = False
) -> DeterminismCheck:
    """Experiment battery: serial vs thread-pool rendered blocks."""
    from repro.experiments.runner import job_names, run_all

    started = time.perf_counter()
    # At least 2 so the parallel leg really runs through a pool even
    # on 1-CPU CI boxes (threads, so oversubscription is harmless).
    workers = max_workers or max(2, min(4, available_workers()))
    profile = "smoke" if smoke else "quick"
    only = tuple(
        name for name in job_names(profile) if name not in WALL_CLOCK_JOBS
    )
    serial = run_all(profile=profile, seed=seed, max_workers=None, only=only)
    parallel = run_all(profile=profile, seed=seed, max_workers=workers, only=only)
    problems: List[str] = []
    if set(serial) != set(parallel):
        problems.append(
            f"block sets differ: {sorted(set(serial) ^ set(parallel))}"
        )
    for key in serial:
        if key in parallel and serial[key] != parallel[key]:
            problems.append(f"block {key!r} differs between serial and parallel")
    ok = not problems
    return DeterminismCheck(
        name="run-all",
        ok=ok,
        detail=(
            f"{len(serial)} blocks ({profile} profile, wall-clock studies "
            f"excluded), 1 vs {workers} workers"
            if ok
            else "; ".join(problems)
        ),
        elapsed_s=time.perf_counter() - started,
    )


def check_sharded(
    seed: int = 0, max_workers: Optional[int] = None, smoke: bool = False
) -> DeterminismCheck:
    """Sharded completion: serial vs pool, plus monolithic equivalence.

    Three bit-level claims are pinned:

    * a ``shards=1`` exact-regime sharded completion equals the
      monolithic completer on the full matrix;
    * a ``halo=0`` exact-regime run reproduces the monolithic completer
      on every shard's sub-TCM;
    * the multilevel (seed + warm) run is bit-identical serial vs
      thread-pool and under shuffled shard input order.
    """
    from repro.core.completion import CompressiveSensingCompleter
    from repro.core.tcm import TimeGrid, TrafficConditionMatrix
    from repro.roadnet.generators import grid_city
    from repro.scale import (
        GridPartitioner,
        ShardedCompleter,
        SinglePartitioner,
    )

    started = time.perf_counter()
    # At least 2 so the parallel leg really runs through a pool even
    # on 1-CPU CI boxes (threads, so oversubscription is harmless).
    workers = max_workers or max(2, min(4, available_workers()))
    rows = 6 if smoke else 10
    slots = 24 if smoke else 60
    iterations = 8 if smoke else 25
    network = grid_city(rows, rows, seed=seed)
    ids = network.segment_ids
    values, mask = _toy_problem(seed + 2, (slots, len(ids)))
    tcm = TrafficConditionMatrix(
        values * mask,
        mask,
        grid=TimeGrid(0.0, 600.0, slots),
        segment_ids=ids,
    )

    problems: List[str] = []

    def exact_completer() -> ShardedCompleter:
        return ShardedCompleter(
            rank=2,
            lam=10.0,
            iterations=iterations,
            seed_iterations=0,
            center=True,
            clip_min=0.0,
            clip_max=150.0,
            seed=seed,
        )

    mono = CompressiveSensingCompleter(
        rank=2,
        lam=10.0,
        iterations=iterations,
        center=True,
        clip_min=0.0,
        clip_max=150.0,
        seed=seed,
    )
    mono_est = mono.complete(tcm.values, tcm.mask).estimate

    single = exact_completer().complete(
        tcm, SinglePartitioner().partition(network)
    )
    detail = _diff_arrays("shards=1 vs monolithic", single.estimate, mono_est)
    if detail:
        problems.append(detail)

    shards0 = GridPartitioner(4, halo=0).partition(network)
    res0 = exact_completer().complete(tcm, shards0)
    col_of = {sid: j for j, sid in enumerate(ids)}
    for shard in shards0:
        cols = np.array([col_of[sid] for sid in shard.all_ids])
        sub = mono.complete(
            np.ascontiguousarray(tcm.values[:, cols]),
            np.ascontiguousarray(tcm.mask[:, cols]),
        )
        detail = _diff_arrays(
            f"halo=0 shard {shard.shard_id} vs monolithic sub-TCM",
            res0.estimate[:, cols],
            sub.estimate,
        )
        if detail:
            problems.append(detail)

    def multilevel(pool: Optional[int], shard_list) -> np.ndarray:
        completer = ShardedCompleter(
            rank=2,
            lam=10.0,
            seed_iterations=3,
            warm_iterations=4,
            center=True,
            clip_min=0.0,
            clip_max=150.0,
            max_workers=pool,
            seed=seed,
        )
        return completer.complete(tcm, shard_list).estimate

    shards1 = GridPartitioner(4, halo=1).partition(network)
    serial = multilevel(None, shards1)
    parallel = multilevel(workers, shards1)
    detail = _diff_arrays("multilevel serial vs pool", serial, parallel)
    if detail:
        problems.append(detail)
    shuffled = multilevel(None, list(reversed(shards1)))
    detail = _diff_arrays("multilevel shard input order", serial, shuffled)
    if detail:
        problems.append(detail)

    ok = not problems
    return DeterminismCheck(
        name="sharded",
        ok=ok,
        detail=(
            f"{len(shards1)} shards on {slots}x{len(ids)}, exact + "
            f"multilevel regimes, 1 vs {workers} workers"
            if ok
            else "; ".join(problems)
        ),
        elapsed_s=time.perf_counter() - started,
    )


CHECKS: Dict[str, Callable[[int, Optional[int], bool], DeterminismCheck]] = {
    "completion": check_completion,
    "tuning": check_tuning,
    "sharded": check_sharded,
    "run-all": check_run_all,
}


def run_determinism_suite(
    checks: Optional[Sequence[str]] = None,
    smoke: bool = False,
    seed: int = 0,
    max_workers: Optional[int] = None,
) -> DeterminismReport:
    """Run the named checks (default: all) and collect the report."""
    names = list(checks) if checks else list(CHECKS)
    unknown = [name for name in names if name not in CHECKS]
    if unknown:
        raise KeyError(
            f"unknown determinism check(s) {unknown} (known: {sorted(CHECKS)})"
        )
    return DeterminismReport(
        checks=[CHECKS[name](seed, max_workers, smoke) for name in names]
    )
