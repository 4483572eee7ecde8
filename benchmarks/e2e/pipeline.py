"""Child-process side of the benchmark: input generation and measurement.

``python -m benchmarks.e2e.pipeline generate ...`` simulates a
workload's fleet once and caches the fixes; ``... measure ...`` loads
them, builds the program, replays the load and prints one JSON result
line.  :mod:`benchmarks.e2e.cli` starts each as its own process, so a
workload's peak RSS and set-up time are its own.

What is timed:

* set-up is program construction only: network, matcher, estimator and
  partition, services, and for ``metro-serve`` the estimate it serves.
  It is repeated until there are ``SETUP_SAMPLES`` samples and
  ``SETUP_MIN_S`` of them in total, and ``setup_s`` is their median;
* pipeline time is the summed duration of the measured operations: a
  published slot plus its queries (streams), an estimate plus its
  queries (batch), or one request (serve);
* input and request generation, warm-up, correctness checks and the
  accuracy evaluation run outside every timer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro import obs
from repro.apps.congestion import CongestionMonitor
from repro.apps.travel_time import TravelTimeService
from repro.apps.trip_planner import TripPlannerService
from repro.core.tcm import TimeGrid, TrafficConditionMatrix
from repro.metrics.errors import nmae
from repro.mobility.fleet import FleetConfig, FleetSimulator
from repro.mobility.reporting import ReportingConfig
from repro.probes.mapmatch import MapMatcher
from repro.probes.report import ReportBatch
from repro.roadnet.generators import shanghai_downtown_like, shanghai_inner_like
from repro.roadnet.network import RoadNetwork
from repro.scale.sharded import ShardedEstimationOutput, ShardedEstimator
from repro.scale.streaming import ShardedStreamingEstimator
from repro.traffic.groundtruth import GroundTruthTraffic
from repro.utils.rng import spawn_rngs

from benchmarks.e2e.tracing import NullTracer, Tracer, rollup
from benchmarks.e2e.workloads import (
    MAP_SEED,
    PROFILES,
    REPORT_INTERVAL_S,
    SLOT_S,
    InputSpec,
    Workload,
    input_path,
)

SETUP_SAMPLES = 5
SETUP_MIN_S = 1.0
#: Published rows the apps serve from after each stream slot.
APP_WINDOW_ROWS = 96
#: Upper clip of the batch estimator (``ShardedEstimator`` default).
MAX_SPEED_KMH = 150.0

NETWORKS = {"downtown": shanghai_downtown_like, "metro": shanghai_inner_like}

Tracing = Any  # Tracer or NullTracer


def build_network(name: str) -> RoadNetwork:
    return NETWORKS[name](MAP_SEED)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def generate(spec: InputSpec, seed: int, path: Path) -> None:
    """Simulate the fleet over seeded ground truth and cache the result."""
    started = time.perf_counter()
    network = build_network(spec.network)
    grid = TimeGrid.over_days(spec.days, SLOT_S)
    truth_rng, fleet_rng = spawn_rngs(seed, 2)
    truth = GroundTruthTraffic.synthesize(network, grid, seed=truth_rng)
    fleet = FleetConfig(
        num_vehicles=spec.taxis,
        reporting=ReportingConfig(interval_range_s=REPORT_INTERVAL_S),
    )
    reports = FleetSimulator(truth, fleet, seed=fleet_rng).run()
    generate_s = time.perf_counter() - started
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.stem + ".partial.npz")
    np.savez(
        partial,
        vehicle_ids=reports.vehicle_ids,
        times_s=reports.times_s,
        xs=reports.xs,
        ys=reports.ys,
        speeds_kmh=reports.speeds_kmh,
        segment_ids=reports.segment_ids,
        headings_deg=reports.headings_deg,
        truth=truth.tcm.values.astype(np.float32),
        generate_s=np.float64(generate_s),
    )
    os.replace(partial, path)


@dataclass(frozen=True)
class Inputs:
    grid: TimeGrid
    delivered: ReportBatch  # what the program receives
    true_segments: np.ndarray  # simulator's segment per fix, -1 while parked
    truth: np.ndarray  # (slots, segments) true mean speeds
    generate_s: float
    digest: str


def load_inputs(workload: Workload, seed: int) -> Inputs:
    spec = workload.inputs
    with np.load(input_path(spec, seed)) as data:
        cols = {name: data[name] for name in data.files}
    digest = hashlib.sha256()
    for name in ("times_s", "xs", "ys", "speeds_kmh", "segment_ids"):
        digest.update(cols[name].tobytes())
    delivered = ReportBatch.from_columns(
        cols["vehicle_ids"],
        cols["times_s"],
        cols["xs"],
        cols["ys"],
        cols["speeds_kmh"],
        # Raw feeds carry positions, speeds and headings only.
        None if workload.raw else cols["segment_ids"],
        cols["headings_deg"],
        assume_sorted=True,
    )
    return Inputs(
        grid=TimeGrid.over_days(spec.days, SLOT_S),
        delivered=delivered,
        true_segments=cols["segment_ids"],
        truth=cols["truth"].astype(np.float64),
        generate_s=float(cols["generate_s"]),
        digest=digest.hexdigest()[:16],
    )


def random_routes(
    network: RoadNetwork, rng: np.random.Generator, count: int
) -> List[List[int]]:
    """Connected routes of 3-8 segments, each a random walk on the network."""
    outgoing: Dict[int, List[int]] = defaultdict(list)
    segments = network.segments()
    for seg in segments:
        outgoing[seg.start].append(seg.segment_id)
    routes = []
    for _ in range(count):
        length = int(rng.integers(3, 9))
        seg = segments[int(rng.integers(len(segments)))]
        route = [seg.segment_id]
        while len(route) < length and outgoing[seg.end]:
            nxt = outgoing[seg.end]
            seg = network.segment(nxt[int(rng.integers(len(nxt)))])
            route.append(seg.segment_id)
        routes.append(route)
    return routes


def stratified(rng: np.random.Generator, count: int, low: float, high: float) -> np.ndarray:
    """One uniform draw from each of ``count`` equal strata of [low, high), shuffled.

    Keeps the mix of rush-hour and off-peak queries the same for every
    seed, so a seed changes which queries are asked, not how costly the
    mix is.
    """
    points = low + (np.arange(count) + rng.random(count)) * (high - low) / count
    return rng.permutation(points)


def reachable_pairs(
    network: RoadNetwork, rng: np.random.Generator, count: int
) -> List[Tuple[int, int]]:
    """Distinct origin-destination pairs that are guaranteed a path."""
    graph = nx.DiGraph((s.start, s.end) for s in network.segments())
    core = sorted(max(nx.strongly_connected_components(graph), key=len))
    pairs = []
    while len(pairs) < count:
        a, b = rng.choice(len(core), size=2, replace=False)
        pairs.append((core[int(a)], core[int(b)]))
    return pairs


def free_flow_prior(network: RoadNetwork, grid: TimeGrid) -> TrafficConditionMatrix:
    """One-slot free-flow estimate the services start from before any publish."""
    speeds = [[network.segment(sid).free_flow_kmh for sid in network.segment_ids]]
    return TrafficConditionMatrix(
        np.asarray(speeds),
        grid=TimeGrid(grid.start_s, grid.slot_s, 1),
        segment_ids=network.segment_ids,
    )


class Apps:
    """The three query services, refreshed together on every publish."""

    def __init__(self, network: RoadNetwork, tcm: TrafficConditionMatrix) -> None:
        self.travel_time = TravelTimeService(network, tcm)
        self.trip_planner = TripPlannerService(network, tcm)
        self.congestion = CongestionMonitor(network, tcm)

    def refresh(self, tcm: TrafficConditionMatrix) -> None:
        self.travel_time.refresh(tcm)
        self.trip_planner.refresh(tcm)
        self.congestion.refresh(tcm)


# ----------------------------------------------------------------------
# Correctness checks (each returns a problem description or None)
# ----------------------------------------------------------------------
def check_speeds(values: np.ndarray, shape: Tuple[int, ...], upper: float) -> Optional[str]:
    if values.shape != shape:
        return f"shape {values.shape} != {shape}"
    if not np.all(np.isfinite(values)):
        return "non-finite speed"
    if values.size and (values.min() < 0.0 or values.max() > upper):
        return f"speed outside [0, {upper}]: [{values.min()}, {values.max()}]"
    return None


def check_columns(segment_ids: Sequence[int], network: RoadNetwork) -> Optional[str]:
    ids = [int(s) for s in segment_ids]
    if ids != sorted(ids) or ids != network.segment_ids:
        return "columns are not in sorted-segment order"
    return None


def check_travel_times(answers: Sequence[float]) -> Optional[str]:
    for seconds in answers:
        if not (math.isfinite(seconds) and seconds > 0.0):
            return f"route travel time {seconds!r} is not a positive duration"
    return None


def check_plan(plan: Any, origin: int, destination: int, network: RoadNetwork) -> Optional[str]:
    if plan is None or not plan.segment_ids:
        return f"no plan from {origin} to {destination} although a path exists"
    segs = [network.segment(sid) for sid in plan.segment_ids]
    if segs[0].start != origin or segs[-1].end != destination:
        return "plan does not join origin to destination"
    if any(a.end != b.start for a, b in zip(segs[:-1], segs[1:])):
        return "plan route is not connected"
    if not (math.isfinite(plan.arrive_s) and plan.arrive_s > plan.depart_s):
        return "plan arrival is not after departure"
    return None


def check_congestion(answer: Any, kind: str, slot: int, n: int) -> Optional[str]:
    if kind == "ranking":
        scores = np.asarray(answer.scores)
        if len(answer.segment_ids) != n or scores.size != n:
            return "ranking does not cover every segment"
        if np.any(np.diff(scores) > 0.0) or scores.min() < 0.0 or scores.max() > 1.0:
            return "ranking scores are not descending congestion indices"
        return None
    for hotspot in answer:
        if hotspot.slot != slot or len(hotspot.segment_ids) < 2:
            return "malformed hotspot"
        if not 0.0 <= hotspot.mean_congestion <= 1.0:
            return "hotspot congestion outside [0, 1]"
    return None


def observed_mask(
    grid: TimeGrid,
    columns: Sequence[int],
    segment_ids: np.ndarray,
    reports: ReportBatch,
    min_speed_kmh: float,
) -> np.ndarray:
    """Cells the stream observed: a kept fix fell in that slot on that segment."""
    keep = (segment_ids >= 0) & (reports.speeds_kmh >= min_speed_kmh)
    slots = ((reports.times_s[keep] - grid.start_s) // grid.slot_s).astype(np.int64)
    mask = np.zeros((grid.num_slots, len(columns)), dtype=bool)
    mask[slots, np.searchsorted(columns, segment_ids[keep])] = True
    return mask


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
Samples = Dict[Hashable, List[float]]  # operation key -> seconds of each repetition


def _samples() -> Samples:
    return defaultdict(list)


@dataclass
class Stats:
    """What one measurement pass attempted, failed and took.

    Every measured operation has a key (slot, estimate, request or query
    id) that names the same work in each repetition, so timings reduce
    per key with min-of-k (:func:`best`): a burst of interference on a
    shared machine slows one repetition, not the reported cost.
    """

    attempted: int = 0
    failed: int = 0
    units: int = 0  # replays, estimates or requests measured
    pipeline_s: float = 0.0  # summed operation time, as run
    ops: Samples = field(default_factory=_samples)  # operation incl. its queries
    op_items: Dict[Hashable, int] = field(default_factory=dict)  # fixes or requests per op
    publish: Samples = field(default_factory=_samples)  # fixes in -> published + refreshed
    queries: Dict[str, Samples] = field(default_factory=lambda: defaultdict(_samples))
    counters: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    errors: List[str] = field(default_factory=list)

    def op(self, key: Hashable, seconds: float, items: int, publish_s: float) -> None:
        self.pipeline_s += seconds
        self.ops[key].append(seconds)
        self.op_items[key] = items
        self.publish[key].append(publish_s)

    def throughput(self) -> float:
        """Items per second of best-of-k operation time."""
        best_s = sum(best(self.ops))
        return sum(self.op_items[k] for k in self.ops) / best_s if best_s else 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)
            print(message, file=sys.stderr)

    def add_counters(self, before: Dict[str, float]) -> None:
        """Accumulate ``repro.obs`` counter growth since ``before``."""
        for name, value in obs_counters().items():
            self.counters[name] += value - before.get(name, 0.0)
        obs.collector().drain()


def best(samples: Samples) -> List[float]:
    """Fastest repetition of each operation (min-of-k)."""
    return [min(v) for v in samples.values()]


def obs_counters() -> Dict[str, float]:
    return dict(obs.registry().snapshot()["counters"])


class Run:
    """Shared state of one workload's measurement in this process.

    ``reference`` is the first measured unit's fingerprint (counts and
    accuracy); every later unit must reproduce it exactly.
    """

    def __init__(self, workload: Workload, inputs: Inputs, seed: int) -> None:
        self.workload = workload
        self.inputs = inputs
        self.seed = seed
        self.rng_seed = [seed, 7]  # request stream, independent of the fleet
        self.reference: Optional[Dict[str, Any]] = None

    def record(self, fingerprint: Dict[str, Any], stats: Stats) -> None:
        if self.reference is None:
            self.reference = fingerprint
        elif fingerprint != self.reference:
            stats.fail(f"unit not reproducible: {fingerprint} != {self.reference}")


@dataclass
class StreamWorld:
    network: RoadNetwork
    matcher: Optional[MapMatcher]
    estimator: ShardedStreamingEstimator
    apps: Apps


class StreamRun(Run):
    """Slot-at-a-time replay: fixes -> [match] -> ingest -> flush -> refresh -> queries."""

    def __init__(self, workload: Workload, inputs: Inputs, seed: int) -> None:
        super().__init__(workload, inputs, seed)
        grid, feed = inputs.grid, inputs.delivered
        slot_of = ((feed.times_s - grid.start_s) // grid.slot_s).astype(np.int64)
        bounds = np.searchsorted(slot_of, np.arange(grid.num_slots + 1))
        self.slots = [
            ReportBatch.from_columns(
                feed.vehicle_ids[lo:hi],
                feed.times_s[lo:hi],
                feed.xs[lo:hi],
                feed.ys[lo:hi],
                feed.speeds_kmh[lo:hi],
                feed.segment_ids[lo:hi],
                feed.headings_deg[lo:hi],
                assume_sorted=True,
            )
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        self.routes: List[List[List[int]]] = []

    def _estimator(self, network: RoadNetwork) -> ShardedStreamingEstimator:
        w, grid = self.workload, self.inputs.grid
        return ShardedStreamingEstimator(
            network,
            shards=w.shards,
            halo=w.halo,
            partitioner=w.partitioner,
            slot_s=grid.slot_s,
            start_s=grid.start_s,
            seed=self.seed,
        )

    def setup(self, tracer: Tracing) -> StreamWorld:
        with tracer.span("roadnet.build"):
            network = build_network(self.workload.inputs.network)
        matcher = None
        if self.workload.raw:
            with tracer.span("mapmatch.build"):
                matcher = MapMatcher(network)
        with tracer.span("stream.build"):
            estimator = self._estimator(network)
        with tracer.span("apps.build"):
            apps = Apps(network, free_flow_prior(network, self.inputs.grid))
        return StreamWorld(network, matcher, estimator, apps)

    def warm_up(self, world: StreamWorld) -> None:
        if not self.routes:
            rng = np.random.default_rng(self.rng_seed)
            per_slot = self.workload.queries_per_unit
            flat = random_routes(world.network, rng, len(self.slots) * per_slot)
            self.routes = [flat[i : i + per_slot] for i in range(0, len(flat), per_slot)]
        throwaway = StreamWorld(
            world.network,
            world.matcher,
            self._estimator(world.network),
            Apps(world.network, free_flow_prior(world.network, self.inputs.grid)),
        )
        self._replay(throwaway, self.slots[: self.workload.warmup_slots], NullTracer(), Stats())

    def run(self, world: StreamWorld, budget_s: float, tracer: Tracing, stats: Stats) -> None:
        before = obs_counters()
        rows, handed = self._replay(world, self.slots, tracer, stats)
        stats.add_counters(before)
        stats.units += 1
        self._check(world, rows, handed, stats)

    def _window(
        self, rows: List[np.ndarray], slot: int, network: RoadNetwork
    ) -> TrafficConditionMatrix:
        grid = self.inputs.grid
        k = min(len(rows), APP_WINDOW_ROWS)
        return TrafficConditionMatrix(
            np.stack(rows[-k:]),
            grid=TimeGrid(grid.start_s + (slot - k + 1) * grid.slot_s, grid.slot_s, k),
            segment_ids=network.segment_ids,
        )

    def _replay(
        self, world: StreamWorld, slots: Sequence[ReportBatch], tracer: Tracing, stats: Stats
    ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        grid = self.inputs.grid
        n = world.network.num_segments
        travel = world.apps.travel_time
        rows: List[np.ndarray] = []
        handed: List[np.ndarray] = []
        for s, batch in enumerate(slots):
            stats.attempted += 1
            depart_s = grid.start_s + s * grid.slot_s
            answers: List[float] = []
            t0 = time.perf_counter()
            try:
                with tracer.span("slot", slot=s):
                    if world.matcher is not None:
                        with tracer.span("mapmatch.match", slot=s):
                            batch = world.matcher.match_batch(batch)
                    with tracer.span("stream.ingest", slot=s):
                        world.estimator.ingest_batch(batch)
                    with tracer.span("stream.close", slot=s):
                        published = world.estimator.flush()
                    rows.append(published.speeds_kmh)
                    with tracer.span("apps.refresh", slot=s):
                        world.apps.refresh(self._window(rows, s, world.network))
                    t_pub = time.perf_counter()
                    for q, route in enumerate(self.routes[s]):
                        started = time.perf_counter()
                        with tracer.span("apps.travel_time", slot=s, request=q):
                            answers.append(travel.route_time_s(route, depart_s))
                        stats.queries["travel_time"][s, q].append(time.perf_counter() - started)
                t1 = time.perf_counter()
            except Exception:
                stats.fail(f"slot {s} raised:\n{traceback.format_exc()}")
                continue
            stats.op(s, t1 - t0, len(batch), t_pub - t0)
            handed.append(batch.segment_ids)
            problem = check_speeds(published.speeds_kmh, (n,), math.inf)
            problem = problem or check_travel_times(answers)
            if problem:
                stats.fail(f"slot {s}: {problem}")
        return rows, handed

    def _check(
        self, world: StreamWorld, rows: List[np.ndarray], handed: List[np.ndarray], stats: Stats
    ) -> None:
        grid = self.inputs.grid
        if len(rows) != grid.num_slots or len(handed) != grid.num_slots:
            stats.fail(f"published {len(rows)} rows for {grid.num_slots} slots")
            return
        problem = check_columns(world.estimator.segment_ids, world.network)
        if problem:
            stats.fail(problem)
        published = np.stack(rows)
        segs = np.concatenate(handed)
        mask = observed_mask(
            grid,
            world.estimator.segment_ids,
            segs,
            self.inputs.delivered,
            world.estimator.min_speed_kmh,
        )
        fingerprint: Dict[str, Any] = {
            "fixes": int(segs.size),
            "matched": int(np.count_nonzero(segs >= 0)),
            "integrity": float(mask.mean()),
            "recompletions": world.estimator.recompletions,
            "recompletions_skipped": world.estimator.recompletions_skipped,
            "max_published_kmh": float(published.max()),
            "nmae": nmae(self.inputs.truth, published, ~mask),
        }
        if world.matcher is not None:
            true = self.inputs.true_segments
            driving = true >= 0
            fingerprint["match_rate"] = float(np.mean(segs >= 0))
            fingerprint["accuracy"] = float(np.mean(segs[driving] == true[driving]))
        self.record(fingerprint, stats)


@dataclass
class SolverWorld:
    network: RoadNetwork
    estimator: ShardedEstimator
    apps: Apps
    served: Optional[ShardedEstimationOutput] = None


class SolverRun(Run):
    """Shared by the batch and serve workloads: the sharded week estimate."""

    def __init__(self, workload: Workload, inputs: Inputs, seed: int) -> None:
        super().__init__(workload, inputs, seed)
        self.first_call_s: Optional[float] = None
        self.stitch_s: List[float] = []

    def _build(self, tracer: Tracing) -> Tuple[RoadNetwork, ShardedEstimator]:
        w = self.workload
        with tracer.span("roadnet.build"):
            network = build_network(w.inputs.network)
        with tracer.span("complete.build"):
            estimator = ShardedEstimator(
                network,
                shards=w.shards,
                halo=w.halo,
                partitioner=w.partitioner,
                seed=self.seed,
            )
        return network, estimator

    def estimate(self, estimator: ShardedEstimator, tracer: Tracing) -> ShardedEstimationOutput:
        """``estimate_from_reports``, split at its aggregate/complete boundary."""
        with tracer.span("aggregate"):
            measurements = estimator.aggregate(self.inputs.delivered, self.inputs.grid)
        started = time.perf_counter()
        with tracer.span("complete.estimate"):
            output = estimator.estimate(measurements)
        if self.first_call_s is None:
            self.first_call_s = time.perf_counter() - started
        self.stitch_s.append(output.completion.stitch_s)
        return output

    def check_estimate(
        self, world: SolverWorld, output: ShardedEstimationOutput, stats: Stats
    ) -> None:
        grid = self.inputs.grid
        values = output.estimate.values
        shape = (grid.num_slots, world.network.num_segments)
        problem = check_speeds(values, shape, MAX_SPEED_KMH) or check_columns(
            output.estimate.segment_ids, world.network
        )
        if problem:
            stats.fail(f"estimate: {problem}")
        mask = output.measurements.mask
        fingerprint = {
            "fixes": len(self.inputs.delivered),
            "integrity": float(mask.mean()),
            "nmae": nmae(self.inputs.truth, values, ~mask),
            "estimate_sha256": hashlib.sha256(values.tobytes()).hexdigest()[:16],
        }
        self.record(fingerprint, stats)


class BatchRun(SolverRun):
    """Repeated week estimates: aggregate -> complete -> refresh -> queries."""

    def __init__(self, workload: Workload, inputs: Inputs, seed: int) -> None:
        super().__init__(workload, inputs, seed)
        self.routes: List[Tuple[List[int], float]] = []

    def setup(self, tracer: Tracing) -> SolverWorld:
        network, estimator = self._build(tracer)
        with tracer.span("apps.build"):
            apps = Apps(network, free_flow_prior(network, self.inputs.grid))
        return SolverWorld(network, estimator, apps)

    def warm_up(self, world: SolverWorld) -> None:
        if not self.routes:
            rng = np.random.default_rng(self.rng_seed)
            grid = self.inputs.grid
            routes = random_routes(world.network, rng, self.workload.queries_per_unit)
            departs = stratified(rng, len(routes), grid.start_s, grid.end_s)
            self.routes = list(zip(routes, departs.tolist()))
        self.estimate(world.estimator, NullTracer())

    def run(self, world: SolverWorld, budget_s: float, tracer: Tracing, stats: Stats) -> None:
        spent = 0.0
        travel = world.apps.travel_time
        while True:
            unit = stats.units
            stats.attempted += 1
            answers: List[float] = []
            before = obs_counters()
            t0 = time.perf_counter()
            try:
                with tracer.span("pass", unit=unit):
                    output = self.estimate(world.estimator, tracer)
                    with tracer.span("apps.refresh", unit=unit):
                        world.apps.refresh(output.estimate)
                    t_pub = time.perf_counter()
                    for q, (route, depart_s) in enumerate(self.routes):
                        started = time.perf_counter()
                        with tracer.span("apps.travel_time", unit=unit, request=q):
                            answers.append(travel.route_time_s(route, depart_s))
                        stats.queries["travel_time"][q].append(time.perf_counter() - started)
                t1 = time.perf_counter()
            except Exception:
                stats.fail(f"estimate {unit} raised:\n{traceback.format_exc()}")
                return
            stats.add_counters(before)
            stats.units += 1
            stats.op("estimate", t1 - t0, len(self.inputs.delivered), t_pub - t0)
            spent += t1 - t0
            self.check_estimate(world, output, stats)
            problem = check_travel_times(answers)
            if problem:
                stats.fail(f"estimate {unit}: {problem}")
            if spent >= budget_s or stats.failed:
                return


class ServeRun(SolverRun):
    """Closed-loop, one-client query mix against the week estimate."""

    def __init__(self, workload: Workload, inputs: Inputs, seed: int) -> None:
        super().__init__(workload, inputs, seed)
        self.requests: List[Tuple[str, tuple]] = []

    def setup(self, tracer: Tracing) -> SolverWorld:
        network, estimator = self._build(tracer)
        served = self.estimate(estimator, tracer)
        with tracer.span("apps.build"):
            apps = Apps(network, served.estimate)
        return SolverWorld(network, estimator, apps, served)

    def _request_mix(self, network: RoadNetwork) -> List[Tuple[str, tuple]]:
        """Round-robin over the apps, so any prefix of the mix is balanced."""
        rng = np.random.default_rng(self.rng_seed)
        grid = self.inputs.grid
        count = self.workload.requests_per_app
        routes = random_routes(network, rng, count)
        pairs = reachable_pairs(network, rng, count)
        travel_departs = stratified(rng, count, grid.start_s, grid.end_s)
        plan_departs = stratified(rng, count, grid.start_s, grid.end_s)
        hotspot_slots = stratified(rng, count // 2, 0, grid.num_slots).astype(int)
        mix: List[Tuple[str, tuple]] = []
        for i in range(count):
            mix.append(("travel_time", (routes[i], float(travel_departs[i]))))
            mix.append(("trip_planner", (*pairs[i], float(plan_departs[i]))))
            if i % 2 == 0:
                lo = int(rng.integers(0, grid.num_slots - 1))
                hi = int(rng.integers(lo + 1, grid.num_slots + 1))
                mix.append(("congestion", ("ranking", lo, hi)))
            else:
                mix.append(("congestion", ("hotspots", int(hotspot_slots[i // 2]), 0)))
        return mix

    @staticmethod
    def _handle(apps: Apps, app: str, args: tuple) -> Any:
        if app == "travel_time":
            return apps.travel_time.route_time_s(*args)
        if app == "trip_planner":
            return apps.trip_planner.plan(*args)
        kind, a, b = args
        if kind == "ranking":
            return apps.congestion.segment_ranking((a, b))
        return apps.congestion.hotspots(a)

    def _check(self, network: RoadNetwork, app: str, args: tuple, answer: Any) -> Optional[str]:
        if app == "travel_time":
            return check_travel_times([answer])
        if app == "trip_planner":
            return check_plan(answer, args[0], args[1], network)
        return check_congestion(answer, args[0], args[1], network.num_segments)

    def warm_up(self, world: SolverWorld) -> None:
        if not self.requests:
            self.requests = self._request_mix(world.network)
        for app, args in self.requests[:3]:
            self._handle(world.apps, app, args)

    def run(self, world: SolverWorld, budget_s: float, tracer: Tracing, stats: Stats) -> None:
        assert world.served is not None
        self.check_estimate(world, world.served, stats)
        spent = 0.0
        i = 0
        while i == 0 or spent < budget_s:
            key = i % len(self.requests)
            app, args = self.requests[key]
            stats.attempted += 1
            t0 = time.perf_counter()
            try:
                with tracer.span("request", request=i):
                    with tracer.span(f"apps.{app}", request=i):
                        answer = self._handle(world.apps, app, args)
                t1 = time.perf_counter()
            except Exception:
                spent += time.perf_counter() - t0
                stats.fail(f"request {i} ({app}) raised:\n{traceback.format_exc()}")
                i += 1
                continue
            stats.queries[app][key].append(t1 - t0)
            stats.op(key, t1 - t0, 1, t1 - t0)
            spent += t1 - t0
            problem = self._check(world.network, app, args, answer)
            if problem:
                stats.fail(f"request {i} ({app}): {problem}")
            i += 1
        stats.units += i


RUNS = {"stream": StreamRun, "batch": BatchRun, "serve": ServeRun}


def measure(run: Any, seconds: float, tracer: Tracing, stats: Stats) -> List[float]:
    """Set up, warm up and run units until ``seconds`` of pipeline time.

    Returns the set-up durations; extra set-ups are timed until there
    are ``SETUP_SAMPLES`` of them and ``SETUP_MIN_S`` in total.
    """
    setup_s: List[float] = []

    def timed_setup() -> Any:
        with tracer.span("setup"):
            started = time.perf_counter()
            world = run.setup(tracer)
            setup_s.append(time.perf_counter() - started)
        return world

    while True:
        world = timed_setup()
        run.warm_up(world)
        run.run(world, seconds - stats.pipeline_s, tracer, stats)
        if stats.pipeline_s >= seconds or stats.failed:
            break
    while len(setup_s) < SETUP_SAMPLES or sum(setup_s) < SETUP_MIN_S:
        timed_setup()
    return setup_s


def _ms(values: Sequence[float], q: float) -> Optional[float]:
    return float(np.percentile(values, q)) * 1e3 if len(values) else None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(stats: Stats, setup_s: List[float], run: Run) -> Dict[str, Optional[float]]:
    return {
        "setup_s": float(np.median(setup_s)),
        "throughput_per_s": stats.throughput() or None,
        "latency_p90_ms": _ms(best(stats.publish), 90),
        "nmae": (run.reference or {}).get("nmae"),
        "peak_rss_mb": peak_rss_mb(),
    }


def details(workload: Workload, stats: Stats, run: Run) -> Dict[str, Any]:
    """Workload-specific figures: per-kind latencies, fixes/s, queries/s (not gated)."""
    queries = sum(len(v) for app in stats.queries.values() for v in app.values())
    travel = best(stats.queries["travel_time"])
    out: Dict[str, Any] = {
        "failed_frac": _ratio(stats.failed, stats.attempted),
        "units": stats.units,
        "pipeline_s": stats.pipeline_s,
        "queries_per_s": _ratio(queries, stats.pipeline_s),
        "repetitions": _ratio(sum(len(v) for v in stats.ops.values()), len(stats.ops)),
        "samples": {app: len(keys) for app, keys in stats.queries.items()},
        "travel_time_p50_ms": _ms(travel, 50),
        "travel_time_p95_ms": _ms(travel, 95),
        # Throughput without min-of-k, for judging its effect.
        "as_run_throughput_per_s": _ratio(
            sum(stats.op_items[k] * len(v) for k, v in stats.ops.items()), stats.pipeline_s
        ),
    }
    publish = best(stats.publish)
    if workload.kind == "stream":
        out["fixes_per_s"] = stats.throughput()
        out["slot_publish_p50_ms"] = _ms(publish, 50)
        out["slot_publish_p95_ms"] = _ms(publish, 95)
        out["samples"]["slot_publish"] = len(publish)
    elif workload.kind == "batch":
        out["fixes_per_s"] = stats.throughput()
        out["estimate_ms"] = _ms(publish, 50)
    else:
        for app, name in (("trip_planner", "trip_plan"), ("congestion", "congestion")):
            out[f"{name}_p50_ms"] = _ms(best(stats.queries[app]), 50)
            out[f"{name}_p95_ms"] = _ms(best(stats.queries[app]), 95)
    if isinstance(run, SolverRun):
        out["complete_first_call_s"] = run.first_call_s
    return out


def per_layer(run: Run, tracer: Tracer, stats: Stats, untraced: Stats) -> Dict[str, float]:
    """Per-layer busy time, shares of the blocking path and counts.

    Counts are per measured unit (one replay or one estimate) and come
    from the first unit's fingerprint or from ``repro.obs`` counters that
    the library already keeps.
    """
    roll = rollup(tracer.spans)
    ref = run.reference or {}
    counters = stats.counters
    units = max(stats.units, 1)
    recompletions = ref.get("recompletions", 0)
    skipped = ref.get("recompletions_skipped", 0)
    match_busy = roll.layer_busy("mapmatch")
    stitch = getattr(run, "stitch_s", [])
    return {
        "roadnet.build_s": roll.setup_s.get("roadnet.build", 0.0),
        "mapmatch.build_s": roll.setup_s.get("mapmatch.build", 0.0),
        "mapmatch.busy_s": match_busy,
        "mapmatch.share": roll.share("mapmatch"),
        "mapmatch.fixes": ref.get("fixes", 0) if "match_rate" in ref else 0,
        "mapmatch.fixes_per_s": _ratio(counters["mapmatch.reports"], match_busy),
        "mapmatch.call_p95_ms": roll.p95_ms("mapmatch.match"),
        "mapmatch.match_rate": ref.get("match_rate", 0.0),
        "mapmatch.accuracy": ref.get("accuracy", 0.0),
        "mapmatch.candidates_per_fix": _ratio(
            counters["mapmatch.candidates_examined"], counters["mapmatch.reports"]
        ),
        "aggregate.busy_s": roll.layer_busy("aggregate"),
        "aggregate.share": roll.share("aggregate"),
        "aggregate.integrity": ref.get("integrity", 0.0),
        "stream.ingest_busy_s": roll.layer_busy("stream.ingest"),
        "stream.close_busy_s": roll.layer_busy("stream.close"),
        "stream.close_p95_ms": roll.p95_ms("stream.close"),
        "stream.share": roll.share("stream"),
        "stream.recompletions": recompletions,
        "stream.recompletions_skipped": skipped,
        "stream.skip_ratio": _ratio(skipped, recompletions + skipped),
        "stream.warm_starts": counters["stream.warm_starts"] / units,
        "stream.cold_starts": counters["stream.cold_starts"] / units,
        "stream.max_published_kmh": ref.get("max_published_kmh", 0.0),
        "complete.busy_s": roll.layer_busy("complete"),
        "complete.first_call_s": getattr(run, "first_call_s", None) or 0.0,
        "complete.stitch_s": float(np.median(stitch)) if stitch else 0.0,
        "complete.share": roll.share("complete"),
        "apps.build_s": roll.setup_s.get("apps.build", 0.0),
        "apps.refresh_busy_s": roll.layer_busy("apps.refresh"),
        "apps.refresh_share": roll.share("apps.refresh"),
        "apps.query_share": roll.share("apps") - roll.share("apps.refresh"),
        "apps.travel_time.busy_s": roll.layer_busy("apps.travel_time"),
        # Query latencies come from the untraced run: a span costs about
        # as much as a 10-microsecond route query.
        "apps.travel_time.p50_ms": _ms(best(untraced.queries["travel_time"]), 50),
        "apps.travel_time.p95_ms": _ms(best(untraced.queries["travel_time"]), 95),
        "apps.trip_planner.busy_s": roll.layer_busy("apps.trip_planner"),
        "apps.congestion.busy_s": roll.layer_busy("apps.congestion"),
        "obs.overhead_frac": 1.0 - _ratio(stats.throughput(), untraced.throughput()),
        "trace.coverage": roll.coverage,
    }


def measure_workload(
    workload: Workload, seed: int, seconds: float, trace_out: Optional[Path]
) -> Dict[str, Any]:
    """The metric run, then (with ``trace_out``) a separate traced run."""
    started = time.perf_counter()
    inputs = load_inputs(workload, seed)
    run = RUNS[workload.kind](workload, inputs, seed)
    stats = Stats()
    setup_s = measure(run, seconds, NullTracer(), stats)
    result: Dict[str, Any] = {
        "workload": workload.name,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "e2e": end_to_end(stats, setup_s, run),
        "details": details(workload, stats, run),
        "fingerprint": run.reference,
        "load": {
            "generate_s": inputs.generate_s,
            "digest": inputs.digest,
            "fixes": len(inputs.delivered),
        },
        "errors": stats.errors,
    }
    if trace_out is not None:
        tracer, traced = Tracer(), Stats()
        obs.enable()
        try:
            measure(run, seconds, tracer, traced)
        finally:
            obs.disable()
        tracer.write_jsonl(trace_out)
        result["layers"] = per_layer(run, tracer, traced, stats)
        result["attempted"] += traced.attempted
        result["failed"] += traced.failed
        result["errors"] += traced.errors
    result["wall_s"] = time.perf_counter() - started
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.pipeline")
    parser.add_argument("stage", choices=("generate", "measure"))
    parser.add_argument("--profile", required=True, choices=sorted(PROFILES))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace-out", type=Path, help="traced run; write spans here")
    args = parser.parse_args(argv)
    workload = PROFILES[args.profile][args.workload]
    if args.stage == "generate":
        generate(workload.inputs, args.seed, input_path(workload.inputs, args.seed))
        return 0
    result = measure_workload(workload, args.seed, args.seconds, args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
