"""The array-indexed app queries answer exactly as the graph-walking oracles.

Property tests on the 4x4 test grid: random complete and partial-coverage
TCMs (columns in shuffled order), random thresholds and random trips.
Plans must match in route and bit for bit in arrival time; hotspots as
sets with bit-equal means, in the documented order; rankings exactly.
The last test checks that first-time queries racing to build the lazy
indexes from several threads answer as serial queries do.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.congestion import CongestionMonitor
from repro.apps.trip_planner import TripPlannerService
from repro.core.tcm import TimeGrid, TrafficConditionMatrix
from tests.app_oracles import reference_hotspots, reference_plan, reference_ranking

oracle_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Congestion levels drawn from a few values so equal cluster means occur.
LEVELS = np.array([0.0, 0.3, 0.5, 0.6, 0.9, 1.0])


def random_tcm(network, seed, partial=False, discrete=False):
    """A complete TCM over all (or a shuffled subset of) the segments."""
    rng = np.random.default_rng(seed)
    ids = list(network.segment_ids)
    if partial:
        keep = rng.random(len(ids)) < rng.uniform(0.3, 0.9)
        ids = [ids[i] for i in rng.permutation(len(ids)) if keep[i]] or ids[:1]
    free = np.array([network.segment(sid).free_flow_kmh for sid in ids])
    num_slots = int(rng.integers(1, 7))
    if discrete:
        values = free * (1.0 - rng.choice(LEVELS, size=(num_slots, len(ids))))
    else:
        values = rng.uniform(0.0, 1.2, size=(num_slots, len(ids))) * free
    grid = TimeGrid(
        start_s=float(rng.uniform(-900.0, 900.0)),
        slot_s=float(rng.uniform(300.0, 1800.0)),
        num_slots=num_slots,
    )
    return TrafficConditionMatrix(values, grid=grid, segment_ids=ids)


def hotspot_key(hotspot):
    return (tuple(hotspot.segment_ids), hotspot.mean_congestion.hex())


def assert_same_hotspots(found, expected):
    assert sorted(map(hotspot_key, found)) == sorted(map(hotspot_key, expected))
    order = [(-h.mean_congestion, h.segment_ids[0]) for h in found]
    assert order == sorted(order)
    assert all(h.segment_ids == sorted(h.segment_ids) for h in found)


def assert_same_plan(found, expected):
    if expected is None:
        assert found is None
        return
    assert found.segment_ids == expected.segment_ids
    assert float(found.arrive_s).hex() == float(expected.arrive_s).hex()
    assert found == expected


class TestHotspotsMatchOracle:
    @oracle_settings
    @given(
        st.integers(0, 10_000),
        st.booleans(),
        st.floats(0.0, 1.0),
        st.integers(1, 4),
    )
    def test_every_slot(self, small_network, seed, partial, threshold, min_size):
        monitor = CongestionMonitor(
            small_network, random_tcm(small_network, seed, partial, discrete=True)
        )
        for slot in range(monitor.tcm.num_slots):
            assert_same_hotspots(
                monitor.hotspots(slot, threshold, min_size),
                reference_hotspots(monitor, slot, threshold, min_size),
            )

    def test_ties_break_on_lowest_segment_id(self, small_network):
        ids = small_network.segment_ids
        free = np.array([small_network.segment(sid).free_flow_kmh for sid in ids])
        values = free[None, :].copy()
        # Two separate two-way streets jammed to the same index.
        jammed = [ids.index(s) for s in ids if small_network.segment(s).start in (0, 15)]
        values[0, jammed] = 0.0
        tcm = TrafficConditionMatrix(values, grid=TimeGrid(0.0, 900.0, 1), segment_ids=ids)
        hotspots = CongestionMonitor(small_network, tcm).hotspots(0, 0.5, 1)
        means = [h.mean_congestion for h in hotspots]
        assert len(set(means)) < len(means)
        firsts = [h.segment_ids[0] for h in hotspots]
        assert firsts == sorted(firsts)


class TestRankingMatchesOracle:
    @oracle_settings
    @given(st.integers(0, 10_000), st.booleans(), st.data())
    def test_any_range(self, small_network, seed, partial, data):
        monitor = CongestionMonitor(small_network, random_tcm(small_network, seed, partial))
        lo = data.draw(st.integers(0, monitor.tcm.num_slots - 1))
        hi = data.draw(st.integers(lo + 1, monitor.tcm.num_slots))
        assert monitor.segment_ranking((lo, hi)) == reference_ranking(monitor, (lo, hi))


class TestPlansMatchOracle:
    @oracle_settings
    @given(st.integers(0, 10_000), st.booleans(), st.data())
    def test_random_trips(self, small_network, seed, partial, data):
        planner = TripPlannerService(small_network, random_tcm(small_network, seed, partial))
        grid = planner.travel_time.tcm.grid
        nodes = st.sampled_from([n.node_id for n in small_network.intersections()])
        # Departures before, inside and after the grid exercise the clamp.
        departs = st.floats(grid.start_s - 3600.0, grid.end_s + 3600.0)
        for _ in range(5):
            origin, destination, depart_s = data.draw(nodes), data.draw(nodes), data.draw(departs)
            assert_same_plan(
                planner.plan(origin, destination, depart_s),
                reference_plan(planner, origin, destination, depart_s),
            )

    def test_refresh_to_new_columns(self, small_network):
        planner = TripPlannerService(small_network, random_tcm(small_network, 1))
        planner.plan(0, 15, 0.0)
        for seed in (2, 3):
            planner.refresh(random_tcm(small_network, seed, partial=True))
            for origin, destination in ((0, 15), (5, 10), (12, 3)):
                assert_same_plan(
                    planner.plan(origin, destination, 100.0),
                    reference_plan(planner, origin, destination, 100.0),
                )


class TestConcurrentFirstQueries:
    THREADS = 8

    def requests(self, network, tcm):
        rng = np.random.default_rng(7)
        nodes = [n.node_id for n in network.intersections()]
        out = []
        for i in range(4 * self.THREADS):
            if i % 2 == 0:
                a, b = rng.choice(nodes, size=2, replace=False)
                depart = float(rng.uniform(tcm.grid.start_s, tcm.grid.end_s))
                out.append(("plan", (int(a), int(b), depart)))
            else:
                out.append(("hotspots", (int(rng.integers(tcm.num_slots)), 0.3, 1)))
        return out

    @staticmethod
    def answer(planner, monitor, kind, args):
        return planner.plan(*args) if kind == "plan" else monitor.hotspots(*args)

    def concurrent(self, planner, monitor, requests):
        """Every thread starts its first query at the same moment."""
        barrier = threading.Barrier(self.THREADS, timeout=30.0)

        def worker(offset):
            barrier.wait()
            return [
                self.answer(planner, monitor, *request)
                for request in requests[offset :: self.THREADS]
            ]

        # Switch threads as often as possible so index builds interleave.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(self.THREADS) as pool:
                batches = list(pool.map(worker, range(self.THREADS), timeout=60.0))
        finally:
            sys.setswitchinterval(interval)
        answers = [None] * len(requests)
        for offset, batch in enumerate(batches):
            answers[offset :: self.THREADS] = batch
        return answers

    def test_match_serial_across_refresh(self, small_network):
        tcms = [
            random_tcm(small_network, 11),
            random_tcm(small_network, 12),  # same columns: indexes kept
            random_tcm(small_network, 13, partial=True),  # new columns
        ]
        planner = TripPlannerService(small_network, tcms[0])
        monitor = CongestionMonitor(small_network, tcms[0])
        for i, tcm in enumerate(tcms):
            if i:
                planner.refresh(tcm)
                monitor.refresh(tcm)
            serial_planner = TripPlannerService(small_network, tcm)
            serial_monitor = CongestionMonitor(small_network, tcm)
            requests = self.requests(small_network, tcm)
            expected = [
                self.answer(serial_planner, serial_monitor, *request)
                for request in requests
            ]
            assert self.concurrent(planner, monitor, requests) == expected
