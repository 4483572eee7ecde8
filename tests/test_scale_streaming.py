"""Tests for repro.scale.streaming (sharded sliding-window estimation)."""

import numpy as np
import pytest

from repro.core import streaming
from repro.core.tcm import TimeGrid
from repro.metrics.errors import nmae
from repro.mobility.fleet import FleetConfig, FleetSimulator
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.probes.aggregation import MAX_SPEED_KMH, aggregate_reports
from repro.probes.report import ProbeReport, ReportBatch
from repro.roadnet.generators import grid_city
from repro.scale import ShardedStreamingEstimator
from repro.traffic.groundtruth import GroundTruthTraffic
from repro.utils.rng import spawn_rngs


@pytest.fixture(scope="module")
def network():
    return grid_city(4, 4, seed=0)


@pytest.fixture()
def obs_on():
    """Observability switched on for one test; yields the registry."""
    obs_trace.reset()
    obs_metrics.reset()
    obs_trace.enable()
    try:
        yield obs_metrics.registry()
    finally:
        obs_trace.disable()
        obs_trace.reset()
        obs_metrics.reset()


def _simulated_day(seed, num_vehicles):
    """A quarter day of simulated fleet reports over a 4x4 grid city."""
    net_rng, traffic_rng, fleet_rng = spawn_rngs(seed, 3)
    network = grid_city(4, 4, seed=net_rng)
    grid = TimeGrid.over_days(0.25, 900.0)
    truth = GroundTruthTraffic.synthesize(network, grid, seed=traffic_rng)
    reports = FleetSimulator(
        truth, FleetConfig(num_vehicles=num_vehicles), seed=fleet_rng
    ).run()
    measured = aggregate_reports(reports, grid, network.segment_ids)
    return network, grid, truth.tcm.values, ReportBatch(reports), measured.mask


@pytest.fixture(scope="module")
def simulated_day():
    return _simulated_day(0, num_vehicles=60)


def _replay_nmae(day, **kw):
    """Stream a simulated day at window 8; NMAE on its unobserved cells."""
    network, grid, truth, batch, mask = day
    est = ShardedStreamingEstimator(
        network, slot_s=grid.slot_s, window_slots=8, seed=0, **kw
    )
    est.ingest_batch(batch)
    while len(est.estimates) < grid.num_slots:
        est.flush()
    published = np.vstack([e.speeds_kmh for e in est.estimates])
    return nmae(truth, published, ~mask), est


def _make_estimator(network, **kw):
    kw.setdefault("shards", 2)
    kw.setdefault("halo", 0)
    kw.setdefault("slot_s", 600.0)
    kw.setdefault("window_slots", 4)
    kw.setdefault("warm_iterations", 3)
    kw.setdefault("cold_iterations", 6)
    kw.setdefault("seed", 0)
    return ShardedStreamingEstimator(network, **kw)


def _reports(network, slots=6, per_slot=30, seed=0, segment_pool=None):
    """Synthetic time-ordered reports spread over the network."""
    rng = np.random.default_rng(seed)
    pool = list(segment_pool or network.segment_ids)
    reports = []
    for slot in range(slots):
        for k in range(per_slot):
            sid = int(pool[rng.integers(0, len(pool))])
            reports.append(
                ProbeReport(
                    vehicle_id=k,
                    time_s=slot * 600.0 + float(rng.uniform(0.0, 599.0)),
                    x=0.0,
                    y=0.0,
                    speed_kmh=float(rng.uniform(15.0, 60.0)),
                    segment_id=sid,
                )
            )
    reports.sort(key=lambda r: r.time_s)
    return reports


class TestIngest:
    def test_batch_closes_slots(self, network):
        est = _make_estimator(network)
        closed = est.ingest_many(_reports(network, slots=6))
        assert len(closed) == 5  # last slot still open
        assert est.estimates == closed
        n = network.num_segments
        for slot_est in closed:
            assert slot_est.speeds_kmh.shape == (n,)
            assert np.isfinite(slot_est.speeds_kmh).all()
            assert 0.0 < slot_est.observed_fraction <= 1.0
        assert est.recompletions > 0

    def test_flush_closes_open_slot(self, network):
        est = _make_estimator(network)
        est.ingest_many(_reports(network, slots=2))
        before = len(est.estimates)
        final = est.flush()
        assert len(est.estimates) == before + 1
        assert final is est.estimates[-1]

    def test_scalar_ingest_matches_batch(self, network):
        reports = _reports(network, slots=4, per_slot=20)
        batch_est = _make_estimator(network)
        batch_est.ingest_many(reports)
        scalar_est = _make_estimator(network)
        for report in reports:
            scalar_est.ingest(report)
        assert len(batch_est.estimates) == len(scalar_est.estimates)
        for a, b in zip(batch_est.estimates, scalar_est.estimates):
            assert a.slot_start_s == b.slot_start_s
            assert np.array_equal(a.speeds_kmh, b.speeds_kmh)
            assert a.observed_fraction == b.observed_fraction

    def test_late_reports_dropped(self, network):
        est = _make_estimator(network)
        est.ingest_many(_reports(network, slots=3))
        stale = ProbeReport(
            vehicle_id=0, time_s=0.0, x=0.0, y=0.0,
            speed_kmh=40.0, segment_id=int(network.segment_ids[0]),
        )
        assert est.ingest(stale) == []

    def test_unknown_and_idle_reports_filtered(self, network):
        est = _make_estimator(network)
        batch = ReportBatch([
            ProbeReport(0, 10.0, 0.0, 0.0, speed_kmh=40.0, segment_id=10_000),
            ProbeReport(1, 20.0, 0.0, 0.0, speed_kmh=0.5,
                        segment_id=int(network.segment_ids[0])),
            ProbeReport(2, 30.0, 0.0, 0.0, speed_kmh=40.0, segment_id=-1),
        ])
        est.ingest_batch(batch)
        assert est._counts.sum() == 0

    def test_trailing_dropped_reports_advance_clock(self, network):
        est = _make_estimator(network)
        batch = ReportBatch([
            ProbeReport(0, 100.0, 0.0, 0.0, speed_kmh=40.0,
                        segment_id=int(network.segment_ids[0])),
            ProbeReport(1, 1300.0, 0.0, 0.0, speed_kmh=40.0, segment_id=-1),
        ])
        closed = est.ingest_batch(batch)
        assert len(closed) == 2  # slots 0 and 1 closed by the stale report


class TestDirtyShardSkip:
    def test_quiet_shards_skip_recompletion(self, network):
        est = _make_estimator(network, shards=2)
        assert est.num_shards == 2
        quiet = est.shards[1]
        pool = est.shards[0].core_ids  # traffic only on shard 0
        est.ingest_many(_reports(network, slots=5, segment_pool=pool))
        assert est.recompletions_skipped > 0
        assert est.recompletions > 0
        # The quiet shard still publishes (zero) estimates for its columns.
        col_of = {sid: j for j, sid in enumerate(est.segment_ids)}
        cols = [col_of[s] for s in quiet.core_ids]
        for slot_est in est.estimates:
            assert np.all(slot_est.speeds_kmh[cols] == 0.0)

    def test_all_shards_dirty_when_covered(self, network):
        est = _make_estimator(network, shards=2)
        est.ingest_many(_reports(network, slots=4, per_slot=120))
        assert est.recompletions_skipped == 0

    @pytest.mark.parametrize("world_seed", range(4))
    def test_skip_costs_at_most_2pct_nmae(self, world_seed, monkeypatch):
        """Republishing a quiet shard's row instead of re-solving its
        window loses at most 2% NMAE against forced re-completion.  (A
        forced re-solve of a window whose newest row is empty pulls that
        row toward the window mean, so skipping is usually better.)"""
        day = _simulated_day(world_seed, num_vehicles=20)
        skip, est = _replay_nmae(day, shards=4)
        assert est.recompletions_skipped > 0
        push = streaming.WindowCompleter.push
        monkeypatch.setattr(
            streaming.WindowCompleter,
            "push",
            lambda self, values, mask, recomplete=True: push(
                self, values, mask, recomplete=True
            ),
        )
        forced, _ = _replay_nmae(day, shards=4)
        assert skip <= 1.02 * forced


class TestDeterminism:
    def test_same_seed_same_stream(self, network):
        runs = []
        for _ in range(2):
            est = _make_estimator(network, shards=3, halo=1)
            est.ingest_many(_reports(network, slots=5))
            est.flush()
            runs.append(np.vstack([e.speeds_kmh for e in est.estimates]))
        assert np.array_equal(runs[0], runs[1])

    def test_halo_partition_stitches(self, network):
        est = _make_estimator(network, shards=3, halo=1)
        assert any(s.halo_ids for s in est.shards)
        closed = est.ingest_many(_reports(network, slots=4, per_slot=80))
        assert closed
        for slot_est in closed:
            assert np.isfinite(slot_est.speeds_kmh).all()


def _feed(network, path, parts, **kw):
    """Publish ``parts`` (report lists) through one ingest path.

    ``batch`` feeds each part to ``ingest_batch`` and ``scalar`` feeds
    reports one at a time, both over 2 grid shards; ``monolithic`` is the
    single-partition stream fed one report at a time.
    """
    kw.setdefault("window_slots", 8)
    if path == "monolithic":
        kw["partitioner"] = "single"
    est = _make_estimator(network, **kw)
    for part in filter(None, parts):
        if path == "batch":
            est.ingest_batch(ReportBatch(part))
        else:
            for r in part:
                est.ingest(r)
    est.flush()
    return np.vstack([e.speeds_kmh for e in est.estimates])


PATHS = ["batch", "scalar", "monolithic"]


class TestNonFiniteSpeeds:
    """One non-finite speed used to poison its shard's window."""

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    @pytest.mark.parametrize("path", PATHS)
    def test_rejected_and_counted(self, network, obs_on, bad, path):
        reports = _reports(network, slots=12, per_slot=30)
        i = next(k for k, r in enumerate(reports) if r.time_s >= 3 * 600.0)
        reports[i] = reports[i]._replace(speed_kmh=bad)
        published = _feed(network, path, [reports])
        assert published.shape == (12, len(network.segment_ids))
        assert np.isfinite(published).all()
        counters = obs_on.snapshot()["counters"]
        assert counters["stream.rejected_nonfinite"] == 1.0


class TestOverspeed:
    """One 1e6 km/h report used to be published as is: through
    ``ingest_batch``, 90 of these 576 cells read above 150 km/h, the
    largest 500,026 km/h, and 132 differed from the clean run."""

    @pytest.mark.parametrize("path", PATHS)
    def test_dropped_and_counted(self, network, obs_on, path):
        reports = _reports(network, slots=12, per_slot=30)
        i = next(k for k, r in enumerate(reports) if r.time_s >= 3 * 600.0)
        clean = _feed(network, path, [reports[:i] + reports[i + 1 :]])
        assert "stream.rejected_overspeed" not in obs_on.snapshot()["counters"]
        reports[i] = reports[i]._replace(speed_kmh=1e6)
        published = _feed(network, path, [reports])
        assert published.shape == (12, len(network.segment_ids))
        assert np.count_nonzero(published > MAX_SPEED_KMH) == 0
        assert np.array_equal(published, clean)
        counters = obs_on.snapshot()["counters"]
        assert counters["stream.rejected_overspeed"] == 1.0
        assert "stream.rejected_nonfinite" not in counters


class TestLateReports:
    """A report for an already-closed slot is dropped and counted once."""

    def _publish(self, network, path, late=None):
        reports = _reports(network, slots=12, per_slot=30)
        # The first slot-4 report closes slot 3.
        i = next(k for k, r in enumerate(reports) if r.time_s >= 4 * 600.0)
        parts = [reports[: i + 1], [late] if late else [], reports[i + 1 :]]
        return _feed(network, path, parts)

    @pytest.mark.parametrize("speed", [40.0, float("inf"), 1e6])
    @pytest.mark.parametrize("path", PATHS)
    def test_dropped_and_counted(self, network, obs_on, path, speed):
        clean = self._publish(network, path)
        assert "stream.rejected_late" not in obs_on.snapshot()["counters"]
        late = ProbeReport(
            vehicle_id=99,
            time_s=600.0 + 300.0,
            x=0.0,
            y=0.0,
            speed_kmh=speed,
            segment_id=int(network.segment_ids[0]),
        )
        published = self._publish(network, path, late)
        assert np.array_equal(published, clean)
        counters = obs_on.snapshot()["counters"]
        assert counters["stream.rejected_late"] == 1.0
        # A late report counts once, as late, whatever its speed.
        assert "stream.rejected_nonfinite" not in counters
        assert "stream.rejected_overspeed" not in counters


class TestAdaptiveSweeps:
    """Re-completions stop at convergence instead of a fixed count."""

    WARM = 8

    def _nmae(self, simulated_day):
        return _replay_nmae(simulated_day, shards=2, warm_iterations=self.WARM)[0]

    def test_warm_sweeps_bounded(self, simulated_day, obs_on, monkeypatch):
        warm_sweeps = []
        run = streaming._warm_run

        def spy(*args):
            outcome = run(*args)
            warm_sweeps.append(len(outcome[3]))
            return outcome

        monkeypatch.setattr(streaming, "_warm_run", spy)
        self._nmae(simulated_day)
        assert warm_sweeps
        assert all(2 <= s <= self.WARM for s in warm_sweeps)
        assert min(warm_sweeps) < self.WARM  # the tolerance fires
        snapshot = obs_on.snapshot()
        counters = snapshot["counters"]
        sweeps = snapshot["histograms"]["stream.sweeps"]
        assert counters["stream.warm_starts"] == len(warm_sweeps)
        assert sweeps["count"] == counters["stream.recompletions"]
        assert sweeps["min"] >= 2

    def test_accuracy_matches_fixed_sweeps(self, simulated_day, monkeypatch):
        adaptive = self._nmae(simulated_day)
        monkeypatch.setattr(streaming, "STREAM_TOL", None)
        fixed = self._nmae(simulated_day)
        assert abs(adaptive - fixed) <= 0.005 * fixed
