"""Run the whole experiment battery and render a combined report.

``run_all`` executes every table/figure driver and returns the rendered
text blocks; ``main`` prints them (``python -m repro.experiments.runner``).
The ``quick`` profile shrinks durations and the Table 1 network so the
battery finishes in a few minutes; the ``paper`` profile uses the
paper's full scales; the ``smoke`` profile shrinks everything to CI
scale (seconds) for the determinism harness.

With ``max_workers`` set, independent figure/table cells fan out over a
thread pool (the inner work is NumPy/LAPACK, which releases the GIL)
and shared simulated worlds are served from the process-wide scenario
cache, so each synthetic city is built once per run regardless of how
many figures read it.  Every driver derives its randomness from its own
config seed, so the rendered blocks are identical — byte for byte — in
serial and parallel runs, except the two studies that print *measured
wall-clock times* (``table2`` run times, streaming latencies), which
differ between any two runs by nature.

Incremental fabric: the battery is a DAG of content-addressed steps.
Each cell is a :class:`BatteryJob` that declares its *config* and the
scenario-cache keys it reads (its store inputs); with an
:class:`~repro.experiments.store.ArtifactStore` attached
(``run_all(store=...)`` / ``repro experiments --store``), a job whose key —
config hash plus input keys — is unchanged is *loaded* from disk
instead of re-run, and scenario builds persist through the store too.
The two wall-clock studies above need care: a cached copy of a
measured time is a stale number from some past run and machine, so
they are marked ``wall_clock=True`` and a store hit *annotates* their
rendered blocks with the recording timestamp — the reader always sees
whether a timing was measured by this run or served from the store
(``repro experiments --no-store`` re-measures).
A store-backed run also audits each rebuilt job against its declared
scenario inputs, so no job can read a simulated world it did not
declare (that would make its key lie about its dependencies).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.obs import manifest as obs_manifest
from repro.obs import trace as obs_trace
from repro.utils.parallel import parallel_map

from repro.experiments.error_cdf import ErrorCdfConfig, run_error_cdf
from repro.experiments.error_vs_integrity import (
    ErrorVsIntegrityConfig,
    run_error_vs_integrity,
)
from repro.experiments.integrity_study import (
    IntegrityStudyConfig,
    run_integrity_study,
)
from repro.experiments.matrix_selection_study import (
    MatrixSelectionConfig,
    run_matrix_selection,
)
from repro.experiments.param_sensitivity import (
    ParamSensitivityConfig,
    run_param_sensitivity,
)
from repro.experiments.robustness import RobustnessConfig, run_robustness
from repro.experiments.runtimes import RuntimeStudyConfig, run_runtime_study
from repro.experiments.sampling_study import SamplingStudyConfig, run_sampling_study
from repro.experiments.scenario_cache import (
    GLOBAL_SCENARIO_CACHE,
    record_scenario_accesses,
    scenario_key,
)
from repro.experiments.store import ArtifactStore, default_store_root
from repro.experiments.streaming_study import (
    StreamingStudyConfig,
    run_streaming_study,
)
from repro.experiments.structure_study import (
    StructureStudyConfig,
    run_structure_study,
)

PROFILES = ("smoke", "quick", "paper")


@dataclass(frozen=True)
class BatteryJob:
    """One battery cell: a runnable plus its content-address metadata.

    ``config`` is the cell's full configuration (a dataclass; hashed
    canonically for the store key) and ``scenarios`` the scenario-cache
    field dicts the cell reads — its declared store inputs.  The
    dataclass is callable so test doubles and the pre-store call sites
    (``job()``) keep working unchanged.

    ``wall_clock=True`` marks cells whose rendered blocks embed
    *measured wall-clock time* (Table 2 runtimes, streaming latencies):
    a cached copy of such a block is a stale measurement from some past
    run and machine, so a store hit prefixes each block with an
    annotation carrying the recording timestamp (see
    :func:`_annotate_cached_timings`) instead of presenting the cached
    numbers as this run's output.
    """

    name: str
    config: Any
    run: Callable[[], Dict[str, str]]
    scenarios: Tuple[Mapping[str, Any], ...] = field(default=())
    wall_clock: bool = False

    def __call__(self) -> Dict[str, str]:
        return self.run()

    def scenario_keys(self) -> Tuple[str, ...]:
        """In-memory scenario-cache keys of the declared inputs."""
        return tuple(scenario_key(fields) for fields in self.scenarios)


def _city_truth_fields(city: str, days: float, seed: int) -> Dict[str, Any]:
    """The scenario-cache key fields of one ``build_city_truth`` world."""
    return {"kind": "city_truth", "city": city, "days": days, "seed": seed}


AnyJob = Union[BatteryJob, Callable[[], Dict[str, str]]]


def _battery_jobs(profile: str, seed: int) -> Dict[str, AnyJob]:
    """Independent figure/table cells by name, each returning its blocks.

    Every job builds its own config (seeded independently), so jobs can
    run in any order or concurrently without changing any output.  The
    ``smoke`` profile shrinks every study to a few seconds total — used
    by ``repro verify-determinism --smoke`` and CI, not for reading off
    paper numbers.
    """
    quick = profile == "quick"
    smoke = profile == "smoke"
    days = 0.5 if smoke else (3.0 if quick else 7.0)

    integrity_config = IntegrityStudyConfig(
        scale=0.05 if smoke else (0.1 if quick else 1.0),
        duration_days=0.5 if smoke else 1.0,
        seed=seed,
    )

    def integrity_job() -> Dict[str, str]:
        result = run_integrity_study(integrity_config)
        return {
            "table1": result.render_table1(),
            "fig2": result.render_road_cdf(),
            "fig3": result.render_slot_cdf(),
        }

    structure_config = StructureStudyConfig(days=days, seed=seed)

    def structure_job() -> Dict[str, str]:
        result = run_structure_study(structure_config)
        return {
            "fig4": result.render_spectrum(),
            "fig5_to_7": result.render_reconstruction_summary(),
            "fig8": result.render_type_occurrence(),
        }

    def sweep_job(city: str, key: str) -> BatteryJob:
        config = (
            ErrorVsIntegrityConfig(
                city=city,
                days=days,
                granularities_s=(1800.0,),
                integrities=(0.2, 0.5),
                seed=seed,
            )
            if smoke
            else ErrorVsIntegrityConfig(city=city, days=days, seed=seed)
        )

        def job() -> Dict[str, str]:
            return {key: run_error_vs_integrity(config).render()}

        return BatteryJob(
            name=f"sweep_{city}",
            config=config,
            run=job,
            scenarios=(_city_truth_fields(city, config.days, config.seed),),
        )

    def cdf_job(city: str, key: str) -> BatteryJob:
        config = (
            ErrorCdfConfig(city=city, days=days, granularities_s=(1800.0,), seed=seed)
            if smoke
            else ErrorCdfConfig(city=city, days=days, seed=seed)
        )

        def job() -> Dict[str, str]:
            return {key: run_error_cdf(config).render()}

        return BatteryJob(
            name=f"cdf_{city}",
            config=config,
            run=job,
            scenarios=(_city_truth_fields(city, config.days, config.seed),),
        )

    params_config = (
        ParamSensitivityConfig(
            days=days,
            rank_sweep=(2, 4),
            lambda_sweep=(1.0, 10.0),
            lambda_sweep_rank=4,
            seed=seed,
        )
        if smoke
        else ParamSensitivityConfig(days=days, seed=seed)
    )

    def params_job() -> Dict[str, str]:
        params = run_param_sensitivity(params_config)
        return {"fig15": params.render_rank(), "fig16": params.render_lambda()}

    def selection_job(integ: float, key: str, suffix: str) -> BatteryJob:
        config = MatrixSelectionConfig(days=days, integrity=integ, seed=seed)

        def job() -> Dict[str, str]:
            return {key: run_matrix_selection(config).render()}

        return BatteryJob(
            name=f"selection_{suffix}",
            config=config,
            run=job,
            scenarios=(
                _city_truth_fields(config.city, config.days, config.seed),
            ),
        )

    runtimes_config = RuntimeStudyConfig(days=days, seed=seed)

    def runtimes_job() -> Dict[str, str]:
        runtimes = run_runtime_study(runtimes_config)
        return {"table2": runtimes.render()}

    sampling_config = SamplingStudyConfig(
        days=0.25 if smoke else (0.5 if quick else 1.0),
        fleet_sizes=(
            (50,) if smoke else ((100, 250) if quick else (100, 250, 500, 1_000))
        ),
        reporting_intervals_s=(
            (300.0,) if smoke else ((60.0, 300.0) if quick else (30.0, 120.0, 300.0))
        ),
        seed=seed,
    )

    def sampling_job() -> Dict[str, str]:
        sampling = run_sampling_study(sampling_config)
        return {"sampling_extension": sampling.render()}

    robustness_config = (
        RobustnessConfig(
            days=days,
            noise_levels_kmh=(0.0, 2.0),
            bias_levels_kmh=(0.0,),
            seed=seed,
        )
        if smoke
        else RobustnessConfig(days=1.0 if quick else 3.0, seed=seed)
    )

    def robustness_job() -> Dict[str, str]:
        return {"robustness_extension": run_robustness(robustness_config).render()}

    streaming_config = StreamingStudyConfig(
        days=0.25 if smoke else (0.5 if quick else 1.0),
        num_vehicles=40 if smoke else (80 if quick else 150),
        seed=seed,
    )

    def streaming_job() -> Dict[str, str]:
        streaming = run_streaming_study(streaming_config)
        return {"streaming_extension": streaming.render()}

    return {
        "integrity": BatteryJob("integrity", integrity_config, integrity_job),
        "structure": BatteryJob("structure", structure_config, structure_job),
        "sweep_shanghai": sweep_job("shanghai", "fig11"),
        "sweep_shenzhen": sweep_job("shenzhen", "fig12"),
        "cdf_shanghai": cdf_job("shanghai", "fig13"),
        "cdf_shenzhen": cdf_job("shenzhen", "fig14"),
        "params": BatteryJob(
            "params",
            params_config,
            params_job,
            scenarios=(
                _city_truth_fields(
                    params_config.city, params_config.days, params_config.seed
                ),
            ),
        ),
        "selection_020": selection_job(0.2, "fig17", "020"),
        "selection_040": selection_job(0.4, "fig18", "040"),
        "runtimes": BatteryJob(
            "runtimes",
            runtimes_config,
            runtimes_job,
            scenarios=(
                _city_truth_fields(
                    runtimes_config.city,
                    runtimes_config.days,
                    runtimes_config.seed,
                ),
            ),
            # Table 2 is measured wall-clock time; a store hit must be
            # visibly annotated as a cached measurement.
            wall_clock=True,
        ),
        "sampling": BatteryJob("sampling", sampling_config, sampling_job),
        "robustness": BatteryJob(
            "robustness",
            robustness_config,
            robustness_job,
            scenarios=(
                _city_truth_fields(
                    robustness_config.city,
                    robustness_config.days,
                    robustness_config.seed,
                ),
            ),
        ),
        # Streaming latencies are measured wall-clock time too (see
        # ``wall_clock`` on BatteryJob).
        "streaming": BatteryJob(
            "streaming", streaming_config, streaming_job, wall_clock=True
        ),
    }


#: First line of every wall-clock block served from the store (see
#: :func:`_annotate_cached_timings`); downstream checks key off it.
CACHED_TIMING_MARKER = "[artifact store]"


def _annotate_cached_timings(
    blocks: Dict[str, str], recorded_utc: str
) -> Dict[str, str]:
    """Prefix cached wall-clock blocks with a staleness annotation.

    Timing numbers loaded from the store were measured by some past run
    on some past machine; presenting them bare would pass them off as
    this run's output.  The annotation makes the provenance explicit in
    the rendered report and tells the reader how to re-measure.
    """
    note = (
        f"{CACHED_TIMING_MARKER} cached measurement"
        f"{f' recorded {recorded_utc}' if recorded_utc else ''}; "
        "wall-clock numbers below are not from this run "
        "(repro experiments --no-store re-measures)"
    )
    return {block: f"{note}\n{text}" for block, text in blocks.items()}


def _run_store_job(
    name: str, job: BatteryJob, store: ArtifactStore
) -> Dict[str, str]:
    """Load the cell from the store, or rebuild, audit, and persist it.

    The job key covers the cell's config *and* the store keys of its
    declared scenario inputs, so a changed scenario invalidates every
    cell that reads it.  On a rebuild the scenario accesses the job
    actually makes are recorded and checked against the declaration —
    an undeclared read is a hard error, because it means the key does
    not cover everything the output depends on.
    """
    scenario_store_keys = [
        store.step_key("scenario", fields) for fields in job.scenarios
    ]
    key = store.step_key(
        "job",
        {"name": name, "config": job.config},
        inputs=scenario_store_keys,
    )
    with obs_trace.span(f"job.{name}", key=key[:12]) as span:
        hit, value = store.get(key)
        if hit:
            span.set(store="hit")
            if job.wall_clock:
                meta = store.meta(key) or {}
                value = _annotate_cached_timings(
                    value, str(meta.get("created_utc", ""))
                )
            return value  # type: ignore[no-any-return]
        span.set(store="miss")
        declared = set(job.scenario_keys())
        with record_scenario_accesses() as accesses:
            value = job.run()
        undeclared = sorted(
            {
                repr(access["fields"])
                for access in accesses
                if access["key"] not in declared
            }
        )
        if undeclared:
            raise RuntimeError(
                f"battery job {name!r} read scenario(s) it does not declare "
                f"as store inputs: {', '.join(undeclared)}; add them to the "
                f"job's BatteryJob.scenarios so its store key covers them"
            )
        # repro-lint: disable-next-line=param-mutation
        store.put(key, value, step=f"job.{name}")  # persists, not np.put
    return value


def _named_job(
    item: Tuple[str, AnyJob, Optional[ArtifactStore]]
) -> Dict[str, str]:
    """Run one battery cell under a ``job.<name>`` span.

    The span shows up in run manifests (``jobs_from_spans``), carrying
    a ``store=hit|miss`` attribute on store-backed runs; while
    observability is off it is the shared no-op.  Plain callables (test
    doubles) run directly; the store path needs a :class:`BatteryJob`.
    """
    name, job, store = item
    if store is not None and isinstance(job, BatteryJob):
        return _run_store_job(name, job, store)
    with obs_trace.span(f"job.{name}"):
        return job()


def job_names(profile: str = "quick") -> Tuple[str, ...]:
    """The battery's job names, in submission order, for ``only=``."""
    if profile not in PROFILES:
        raise ValueError(f"profile must be one of {PROFILES}, got {profile!r}")
    return tuple(_battery_jobs(profile, seed=0))


def run_all(
    profile: str = "quick",
    seed: int = 0,
    max_workers: Optional[int] = None,
    only: Optional[Sequence[str]] = None,
    store: Optional[ArtifactStore] = None,
) -> Dict[str, str]:
    """Execute every experiment; returns {section name: rendered text}.

    ``max_workers`` fans the independent cells out over a thread pool
    (``None``/``1`` = serial).  Results are identical either way; cells
    that share a simulated city deduplicate the build through the
    scenario cache.  ``only`` restricts the battery to the named jobs
    (see :func:`job_names`) without changing their outputs — used by
    ``repro verify-determinism`` to drop the wall-clock studies.

    ``store`` turns the run incremental: each cell's rendered blocks
    are persisted in the artifact store under a content key (config +
    scenario inputs), unchanged cells are loaded instead of re-run, and
    scenario builds persist through the store too.  The scenario cache
    is attached to the store for the duration of the call.
    """
    if profile not in PROFILES:
        raise ValueError(f"profile must be one of {PROFILES}, got {profile!r}")
    jobs = _battery_jobs(profile, seed)
    if only is not None:
        unknown = [name for name in only if name not in jobs]
        if unknown:
            raise KeyError(f"unknown job(s) {unknown} (known: {list(jobs)})")
        wanted = set(only)
        jobs = {name: job for name, job in jobs.items() if name in wanted}
    if store is not None:
        GLOBAL_SCENARIO_CACHE.set_persistent_store(store)
    try:
        with obs_trace.span(
            "run_all",
            profile=profile,
            seed=seed,
            jobs=len(jobs),
            store=store is not None,
        ):
            # The access recorder is threading.local state: each pool
            # worker mutates only its own per-thread recorder stack, so
            # there is no cross-worker race to flag here.
            # repro-lint: disable-next-line=worker-shared-state
            results = parallel_map(
                _named_job,
                [(name, job, store) for name, job in jobs.items()],
                max_workers=max_workers,
                span_name="runner.dispatch",
            )
    finally:
        if store is not None:
            GLOBAL_SCENARIO_CACHE.set_persistent_store(None)
    blocks: Dict[str, str] = {}
    for rendered in results:
        blocks.update(rendered)
    return blocks


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: run the battery and print every block."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", choices=PROFILES, default="quick")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="thread-pool width for independent cells (default: serial)",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        default=None,
        metavar="JOB",
        help="run only these named jobs (see repro.experiments.runner.job_names)",
    )
    parser.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help=(
            "write a run manifest (JSON) here after the battery; enables "
            "observability for this run so the manifest carries spans"
        ),
    )
    parser.add_argument(
        "--store",
        action="store_true",
        default=False,
        help=(
            "persist and reuse step outputs through the on-disk artifact "
            "store (see repro.experiments.store); unchanged cells are "
            "loaded instead of re-run"
        ),
    )
    parser.add_argument(
        "--no-store",
        dest="store",
        action="store_false",
        help="force a from-scratch run even when a store directory exists",
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="artifact store directory (default: $REPRO_STORE_DIR or .repro-store)",
    )
    args = parser.parse_args(argv)

    if args.manifest:
        obs_trace.enable()

    store: Optional[ArtifactStore] = None
    if args.store:
        store = ArtifactStore(root=args.store_dir or default_store_root())

    started = time.perf_counter()
    blocks = run_all(
        profile=args.profile,
        seed=args.seed,
        max_workers=args.max_workers,
        only=args.only,
        store=store,
    )
    for name, text in blocks.items():
        print(f"==== {name} " + "=" * max(0, 60 - len(name)))
        print(text)
        print()
    print(f"total: {time.perf_counter() - started:.1f}s")
    if store is not None:
        stats = store.stats
        print(store.render_stats())
        print(
            f"rebuilt {stats['misses']} of "
            f"{stats['hits'] + stats['misses']} step(s)"
        )

    if args.manifest:
        spans = obs_trace.collector().snapshot()
        payload = obs_manifest.build_manifest(
            "run-all",
            config={
                "profile": args.profile,
                "seed": args.seed,
                "max_workers": args.max_workers,
                "only": list(args.only) if args.only else [],
                "store": bool(store),
            },
            seed=args.seed,
            jobs=obs_manifest.jobs_from_spans(spans),
            spans=spans,
        )
        out = obs_manifest.write_manifest(payload, args.manifest)
        print(f"manifest: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
