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


#: A problem Algorithm 1's kernel binds in its sparse layout: the cell
#: floor (:data:`repro.core.completion.SPARSE_MIN_CELLS`) at about 4%
#: observed.
SPARSE_SHAPE = (128, 1024)
SPARSE_OBSERVED = 0.03


def _toy_problem(
    seed: int, shape: Tuple[int, int], observed: float = 0.4
) -> Tuple[np.ndarray, np.ndarray]:
    """A low-rank-plus-noise matrix with a random observation mask."""
    rng = ensure_rng(seed)
    m, n = shape
    left = rng.uniform(0.5, 1.5, size=(m, 3))
    right = rng.uniform(0.5, 1.5, size=(n, 3))
    values = left @ right.T * 20.0 + rng.normal(0.0, 0.5, size=(m, n))
    mask = rng.random((m, n)) < observed
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

    The kernel is double-run in float64 and float32, in both of its
    layouts (a small dense problem and one at the sparse layout's cell
    floor): it reuses buffers across sweeps, so this is exactly where a
    thread-race would surface, and reduced precision must still be
    bit-identical serial vs pool.
    """
    from repro.core.completion import (
        CompletionResult,
        CompressiveSensingCompleter,
        _sparse_layout,
    )

    started = time.perf_counter()
    # At least 2 so the parallel leg really runs through a pool even
    # on 1-CPU CI boxes (threads, so oversubscription is harmless).
    workers = max_workers or max(2, min(4, available_workers()))
    shape = (24, 18) if smoke else (96, 60)
    iterations = 8 if smoke else 25
    restarts = 4 if smoke else 6
    dtypes = ("float64", "float32")
    cases = {
        "dense": _toy_problem(seed, shape),
        "sparse": _toy_problem(seed, SPARSE_SHAPE, SPARSE_OBSERVED),
    }

    def run(
        values: np.ndarray, mask: np.ndarray, pool: Optional[int], dtype: str
    ) -> CompletionResult:
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
    for layout, (values, mask) in cases.items():
        if _sparse_layout(mask.size, np.count_nonzero(mask)) != (layout == "sparse"):
            problems.append(f"the {layout} problem binds the other layout")
        for dtype in dtypes:
            tag = f"[{layout} {dtype}]"
            serial = run(values, mask, None, dtype)
            parallel = run(values, mask, workers, dtype)
            detail = _diff_arrays(
                f"{tag} estimate", serial.estimate, parallel.estimate
            )
            if detail:
                problems.append(detail)
            if serial.objective != parallel.objective:
                problems.append(
                    f"{tag} objective {serial.objective!r} "
                    f"vs {parallel.objective!r}"
                )
            if serial.best_restart != parallel.best_restart:
                problems.append(f"{tag} winning restart index differs")
            if serial.restart_histories != parallel.restart_histories:
                problems.append(f"{tag} per-restart objective histories differ")
    ok = not problems
    shapes_run = ", ".join(
        f"{values.shape[0]}x{values.shape[1]} ({layout})"
        for layout, (values, _) in cases.items()
    )
    return DeterminismCheck(
        name="completion",
        ok=ok,
        detail=(
            f"{restarts} restarts x {iterations} sweeps on {shapes_run}, "
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

    Three bit-level claims are pinned, on a small problem the kernel
    binds densely and on one whose full matrix and ``halo=0`` shards it
    binds in its sparse layout:

    * a ``shards=1`` exact-regime sharded completion equals the
      monolithic completer on the full matrix;
    * a ``halo=0`` exact-regime run reproduces the monolithic completer
      on every shard's sub-TCM;
    * the multilevel (seed + warm) run is bit-identical serial vs
      thread-pool, in float64 and float32, and under shuffled shard
      input order;
    * on the sparse case, the multilevel run from a TCM built from its
      observed cells, as ``aggregate_reports`` builds one, equals the
      run from the same values and mask built densely.
    """
    from repro.core.completion import CompressiveSensingCompleter, _sparse_layout
    from repro.core.tcm import TimeGrid, TrafficConditionMatrix
    from repro.probes.aggregation import MAX_SPEED_KMH
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
    iterations = 8 if smoke else 25
    rows = 6 if smoke else 10
    # (grid rows, slots, observed fraction, shards); the sparse case's
    # two halo-0 shards each hold over 131,072 cells of a 360-column,
    # 1,024-slot matrix about 4% observed.
    cases = {
        "dense": (rows, 24 if smoke else 60, 0.4, 4),
        "sparse": (10, 1024, SPARSE_OBSERVED, 2),
    }
    problems: List[str] = []
    ran: List[str] = []

    for layout, (grid_rows, slots, observed, num_shards) in cases.items():
        network = grid_city(grid_rows, grid_rows, seed=seed)
        ids = network.segment_ids
        values, mask = _toy_problem(seed + 2, (slots, len(ids)), observed)
        tcm = TrafficConditionMatrix(
            values * mask,
            mask,
            grid=TimeGrid(0.0, 600.0, slots),
            segment_ids=ids,
        )

        def exact_completer() -> ShardedCompleter:
            return ShardedCompleter(
                rank=2,
                lam=10.0,
                iterations=iterations,
                seed_iterations=0,
                center=True,
                clip_min=0.0,
                clip_max=MAX_SPEED_KMH,
                seed=seed,
            )

        mono = CompressiveSensingCompleter(
            rank=2,
            lam=10.0,
            iterations=iterations,
            center=True,
            clip_min=0.0,
            clip_max=MAX_SPEED_KMH,
            seed=seed,
        )
        mono_est = mono.complete(tcm.values, tcm.mask).estimate

        single = exact_completer().complete(
            tcm, SinglePartitioner().partition(network)
        )
        detail = _diff_arrays(
            f"[{layout}] shards=1 vs monolithic", single.estimate, mono_est
        )
        if detail:
            problems.append(detail)

        shards0 = GridPartitioner(num_shards, halo=0).partition(network)
        res0 = exact_completer().complete(tcm, shards0)
        col_of = {sid: j for j, sid in enumerate(ids)}
        for shard in shards0:
            cols = np.array([col_of[sid] for sid in shard.all_ids])
            sub_mask = np.ascontiguousarray(tcm.mask[:, cols])
            if _sparse_layout(sub_mask.size, np.count_nonzero(sub_mask)) != (
                layout == "sparse"
            ):
                problems.append(
                    f"[{layout}] halo=0 shard {shard.shard_id} binds the "
                    "other layout"
                )
            sub = mono.complete(np.ascontiguousarray(tcm.values[:, cols]), sub_mask)
            detail = _diff_arrays(
                f"[{layout}] halo=0 shard {shard.shard_id} vs monolithic sub-TCM",
                res0.estimate[:, cols],
                sub.estimate,
            )
            if detail:
                problems.append(detail)

        def multilevel(
            pool: Optional[int], shard_list, dtype: str, measured=tcm
        ) -> np.ndarray:
            completer = ShardedCompleter(
                rank=2,
                lam=10.0,
                seed_iterations=3,
                warm_iterations=4,
                dtype=dtype,
                center=True,
                clip_min=0.0,
                clip_max=MAX_SPEED_KMH,
                max_workers=pool,
                seed=seed,
            )
            return completer.complete(measured, shard_list).estimate

        shards1 = GridPartitioner(num_shards, halo=1).partition(network)
        from_cells = TrafficConditionMatrix.from_cells(
            tcm.shape,
            np.flatnonzero(mask),
            tcm.values_view[mask],
            grid=tcm.grid,
            segment_ids=ids,
        )
        for dtype in ("float64", "float32"):
            tag = f"[{layout} {dtype}] multilevel"
            serial = multilevel(None, shards1, dtype)
            parallel = multilevel(workers, shards1, dtype)
            detail = _diff_arrays(f"{tag} serial vs pool", serial, parallel)
            if detail:
                problems.append(detail)
            shuffled = multilevel(None, list(reversed(shards1)), dtype)
            detail = _diff_arrays(f"{tag} shard input order", serial, shuffled)
            if detail:
                problems.append(detail)
            if layout == "sparse":
                cells = multilevel(None, shards1, dtype, from_cells)
                detail = _diff_arrays(f"{tag} cells-built vs dense TCM", cells, serial)
                if detail:
                    problems.append(detail)
        ran.append(f"{len(shards1)} shards on {slots}x{len(ids)} ({layout})")

    ok = not problems
    return DeterminismCheck(
        name="sharded",
        ok=ok,
        detail=(
            ", ".join(ran)
            + f", exact + multilevel regimes, 1 vs {workers} workers, "
            "float64, float32, cells-built TCM (sparse)"
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
