"""Tests for repro.probes.mapmatch."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.obs import metrics as obs_metrics
from repro.probes import mapmatch
from repro.probes.mapmatch import GridIndex, MapMatcher
from repro.probes.report import ProbeReport, ReportBatch
from repro.roadnet.geometry import Point, heading_deg, point_segment_distance
from repro.roadnet.network import RoadNetwork
from repro.roadnet.segment import Intersection, RoadSegment


class TestGridIndex:
    def test_candidates_near_segment(self, small_network):
        index = GridIndex(small_network, cell_m=300.0)
        seg = small_network.segment(0)
        mid = seg.point_at(0.5)
        candidates = index.candidates(mid)
        assert seg.segment_id in candidates

    def test_every_segment_registered(self, small_network):
        index = GridIndex(small_network, cell_m=250.0)
        assert np.all(np.diff(index.indptr) >= 0)
        assert index.indptr[-1] == index.indices.size
        # The trailing off-grid cell is empty.
        assert index.indptr[-2] == index.indptr[-1]
        registered = set(index.segment_ids[index.indices].tolist())
        assert registered == set(small_network.segment_ids)

    def test_cell_rows_ascend(self, small_network):
        index = GridIndex(small_network, cell_m=250.0)
        for lo, hi in zip(index.indptr[:-1], index.indptr[1:]):
            assert np.all(np.diff(index.indices[lo:hi]) > 0)

    def test_num_cells_positive(self, small_network):
        assert GridIndex(small_network).num_cells > 0

    def test_rejects_bad_params(self, small_network):
        with pytest.raises(ValueError):
            GridIndex(small_network, cell_m=0.0)
        with pytest.raises(ValueError):
            GridIndex(small_network, pad_m=-1.0)


class TestMapMatcher:
    def test_exact_point_matches(self, small_network):
        matcher = MapMatcher(small_network, max_distance_m=30.0)
        seg = small_network.segment(5)
        assert matcher.match_point(seg.point_at(0.4)) in (
            seg.segment_id,
            # The opposite-direction twin shares the geometry.
            *small_network.adjacent_segments(seg.segment_id),
        )

    def test_offset_point_matches_nearby(self, small_network):
        matcher = MapMatcher(small_network, max_distance_m=30.0)
        seg = small_network.segment(0)
        p = seg.point_at(0.5)
        matched = matcher.match_point(Point(p.x + 10.0, p.y + 10.0))
        assert matched >= 0

    def test_far_point_rejected(self, small_network):
        matcher = MapMatcher(small_network, max_distance_m=30.0)
        min_x, min_y, _, _ = small_network.bounding_box()
        assert matcher.match_point(Point(min_x - 5000.0, min_y - 5000.0)) == -1

    def test_match_batch(self, small_network):
        seg = small_network.segment(3)
        p = seg.point_at(0.5)
        reports = [
            ProbeReport(0, 0.0, p.x, p.y, 30.0),
            ProbeReport(0, 1.0, p.x + 9999.0, p.y, 30.0),
        ]
        matched = MapMatcher(small_network, max_distance_m=30.0).match_batch(
            ReportBatch(reports)
        )
        assert matched.segment_ids[0] >= 0
        assert matched.segment_ids[1] == -1

    def test_match_rate(self, small_network):
        seg = small_network.segment(3)
        p = seg.point_at(0.5)
        reports = [ProbeReport(0, float(i), p.x, p.y, 30.0) for i in range(4)]
        matcher = MapMatcher(small_network, max_distance_m=30.0)
        assert matcher.match_rate(ReportBatch(reports)) == 1.0
        assert matcher.match_rate(ReportBatch([])) == 0.0

    def test_heading_separates_direction_twins(self, small_network):
        """A heading matches the correct direction of a two-way street."""
        from repro.roadnet.geometry import heading_deg as course_of

        seg = small_network.segment(0)
        reverse = small_network.segment_between(seg.end, seg.start)
        assert reverse is not None
        p = seg.point_at(0.5)
        matcher = MapMatcher(small_network, max_distance_m=30.0)
        forward_course = course_of(seg.start_point, seg.end_point)
        backward_course = (forward_course + 180.0) % 360.0
        assert matcher.match_point(p, heading=forward_course) == seg.segment_id
        assert matcher.match_point(p, heading=backward_course) == reverse.segment_id

    def test_heading_nan_behaves_like_no_heading(self, small_network):
        matcher = MapMatcher(small_network, max_distance_m=30.0)
        p = small_network.segment(3).point_at(0.5)
        assert matcher.match_point(p, heading=float("nan")) == matcher.match_point(p)

    def test_heading_never_unmatches_within_radius(self, small_network):
        """Heading only re-ranks; it cannot push a fix out of the gate."""
        matcher = MapMatcher(small_network, max_distance_m=30.0)
        p = small_network.segment(3).point_at(0.5)
        for heading in (0.0, 90.0, 180.0, 270.0):
            assert matcher.match_point(p, heading=heading) >= 0

    def test_heading_penalty_validated(self, small_network):
        with pytest.raises(ValueError):
            MapMatcher(small_network, heading_penalty_m=-1.0)

    def test_directional_match_rate_on_simulated_reports(self, ground_truth):
        """With headings, the matcher recovers the *directed* segment."""
        from repro.mobility.fleet import FleetConfig, FleetSimulator
        from repro.mobility.reporting import ReportingConfig

        config = FleetConfig(
            num_vehicles=5,
            reporting=ReportingConfig(position_noise_m=0.0),
        )
        batch = FleetSimulator(ground_truth, config, seed=0).run(0.0, 2 * 3600.0)
        driving = ReportBatch([r for r in batch if r.segment_id >= 0])
        matched = MapMatcher(ground_truth.network, max_distance_m=25.0).match_batch(
            driving
        )
        exact = np.mean(matched.segment_ids == driving.segment_ids)
        assert exact > 0.9  # direction twins resolved, not just geometry

    def test_matches_simulated_reports(self, ground_truth):
        """End to end: simulator positions must map-match back to their segment."""
        from repro.mobility.fleet import FleetConfig, FleetSimulator
        from repro.mobility.reporting import ReportingConfig

        config = FleetConfig(
            num_vehicles=5,
            reporting=ReportingConfig(position_noise_m=0.0),
        )
        batch = FleetSimulator(ground_truth, config, seed=0).run(0.0, 2 * 3600.0)
        driving = ReportBatch([r for r in batch if r.segment_id >= 0])
        matcher = MapMatcher(ground_truth.network, max_distance_m=25.0)
        matched = matcher.match_batch(driving)
        agree = 0
        for true, found in zip(driving.segment_ids, matched.segment_ids):
            seg = ground_truth.network.segment(int(true))
            # The opposite-direction twin is geometrically identical, so
            # matching either direction counts as correct.
            twins = {true}
            reverse = ground_truth.network.segment_between(seg.end, seg.start)
            if reverse is not None:
                twins.add(reverse.segment_id)
            agree += int(found in twins)
        assert agree / max(1, len(driving)) > 0.95


class TestVectorizedScalarEquivalence:
    def _random_batch(self, network, n, seed, with_headings=True):
        rng = np.random.default_rng(seed)
        xmin, ymin, xmax, ymax = network.bounding_box()
        pad = 150.0  # places a share of reports outside every cell
        xs = rng.uniform(xmin - pad, xmax + pad, n)
        ys = rng.uniform(ymin - pad, ymax + pad, n)
        headings = rng.uniform(0.0, 360.0, n)
        if with_headings:
            headings[rng.random(n) < 0.5] = np.nan
        else:
            headings[:] = np.nan
        return ReportBatch(
            ProbeReport(
                vehicle_id=i % 7,
                time_s=float(i),
                x=float(xs[i]),
                y=float(ys[i]),
                speed_kmh=30.0,
                segment_id=-1,
                heading_deg=float(headings[i]),
            )
            for i in range(n)
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_on_random_reports(self, small_network, seed):
        matcher = MapMatcher(small_network, max_distance_m=60.0)
        batch = self._random_batch(small_network, 400, seed)
        fast = matcher.match_batch(batch, method="vectorized")
        slow = matcher.match_batch(batch, method="scalar")
        np.testing.assert_array_equal(fast.segment_ids, slow.segment_ids)

    def test_matches_scalar_without_headings(self, small_network):
        matcher = MapMatcher(small_network)
        batch = self._random_batch(small_network, 300, 3, with_headings=False)
        fast = matcher.match_batch(batch, method="vectorized")
        slow = matcher.match_batch(batch, method="scalar")
        np.testing.assert_array_equal(fast.segment_ids, slow.segment_ids)

    def test_equidistant_tie_breaks_identically(self, small_network):
        # 10 m from both the eastbound and the northbound street at a
        # corner: the two point-to-segment distances are exactly equal
        # (both representable as 10.0), so the winner is pure tie-break.
        matcher = MapMatcher(small_network, max_distance_m=50.0)
        node = small_network.segments()[0].start_point
        batch = ReportBatch(
            [
                ProbeReport(
                    vehicle_id=0,
                    time_s=0.0,
                    x=float(node.x + 10.0),
                    y=float(node.y + 10.0),
                    speed_kmh=30.0,
                    segment_id=-1,
                )
            ]
        )
        fast = matcher.match_batch(batch, method="vectorized")
        slow = matcher.match_batch(batch, method="scalar")
        np.testing.assert_array_equal(fast.segment_ids, slow.segment_ids)
        oracle = brute_force_match(matcher, node.x + 10.0, node.y + 10.0, None)
        assert fast.segment_ids.tolist() == [oracle]

    def test_out_of_grid_reports_stay_unmatched(self, small_network):
        matcher = MapMatcher(small_network)
        xmin, ymin, _, _ = small_network.bounding_box()
        batch = ReportBatch(
            [
                ProbeReport(
                    vehicle_id=0,
                    time_s=0.0,
                    x=xmin - 5_000.0,
                    y=ymin - 5_000.0,
                    speed_kmh=30.0,
                    segment_id=-1,
                )
            ]
        )
        for method in ("vectorized", "scalar"):
            out = matcher.match_batch(batch, method=method)
            assert out.segment_ids.tolist() == [-1]

    def test_unknown_method_rejected(self, small_network):
        matcher = MapMatcher(small_network)
        with pytest.raises(ValueError, match="method"):
            matcher.match_batch(ReportBatch([]), method="nope")


def brute_force_match(matcher, x, y, heading):
    """Nearest segment over *every* segment: no index, same gate and penalty.

    Segments are scanned in ascending id order with a strict ``<``, so an
    exact score tie goes to the lowest id.
    """
    best_id, best_score = -1, math.inf
    for seg in matcher.network.segments():
        d = point_segment_distance(Point(x, y), seg.start_point, seg.end_point)
        if d > matcher.max_distance_m:
            continue
        cost = 0.0
        if heading is not None and math.isfinite(heading):
            diff = abs(heading_deg(seg.start_point, seg.end_point) - heading) % 360.0
            diff = min(diff, 360.0 - diff)
            cost = matcher.heading_penalty_m * diff / 180.0
        if d + cost < best_score:
            best_id, best_score = seg.segment_id, d + cost
    return best_id


class TestBruteForceOracle:
    """Both matchers equal an exhaustive search over all segments."""

    @staticmethod
    def _fixes(network, cell_m, data):
        """Fixes on cell boundaries, off the grid, and on segments."""
        xmin, ymin, xmax, ymax = network.bounding_box()
        segments = network.segments()
        kmin, kmax = math.floor((xmin - 300.0) / cell_m), math.ceil((xmax + 300.0) / cell_m)
        coord = st.floats(min(xmin, ymin) - 500.0, max(xmax, ymax) + 500.0)
        boundary = st.integers(kmin, kmax).map(lambda k: k * cell_m)
        on_segment = st.tuples(
            st.integers(0, len(segments) - 1), st.floats(0.0, 1.0)
        ).map(lambda t: segments[t[0]].point_at(t[1]))
        point = st.one_of(
            st.tuples(coord, coord),
            st.tuples(boundary, coord),
            st.tuples(boundary, boundary),
            on_segment.map(lambda p: (p.x, p.y)),
            st.tuples(on_segment, st.floats(-60.0, 60.0)).map(
                lambda t: (t[0].x + t[1], t[0].y)
            ),
        )
        heading = st.one_of(st.just(math.nan), st.floats(0.0, 360.0), st.just(math.inf))
        return data.draw(st.lists(st.tuples(point, heading), min_size=1, max_size=40))

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        cell_m=st.sampled_from([None, 100.0, 137.5, 200.0, 250.0]),
        max_distance_m=st.sampled_from([25.0, 50.0, 60.0]),
        data=st.data(),
    )
    def test_both_paths_equal_exhaustive_search(
        self, small_network, cell_m, max_distance_m, data
    ):
        matcher = MapMatcher(small_network, max_distance_m=max_distance_m, cell_m=cell_m)
        fixes = self._fixes(small_network, matcher.index.cell_m, data)
        xs = np.array([p[0] for p, _ in fixes])
        ys = np.array([p[1] for p, _ in fixes])
        heads = np.array([h for _, h in fixes])
        expected = [brute_force_match(matcher, x, y, h) for x, y, h in zip(xs, ys, heads)]
        assert matcher.match_arrays(xs, ys, heads).tolist() == expected
        scalar = [matcher.match_point(Point(x, y), heading=h) for x, y, h in zip(xs, ys, heads)]
        assert scalar == expected

    def test_gate_edge_just_across_a_cell_boundary(self):
        # The fix sits one ulp left of the boundary x = 10 where the
        # segment's padded bbox (60 - 50) starts, yet px - 60 rounds to
        # exactly -50: in the gate, and only in the index because of the
        # registration slack.
        nodes = [Intersection(0, Point(60.0, 0.0)), Intersection(1, Point(60.0, 100.0))]
        seg = RoadSegment(0, 0, 1, nodes[0].location, nodes[1].location, 100.0)
        matcher = MapMatcher(RoadNetwork(nodes, [seg]), max_distance_m=50.0, cell_m=10.0)
        px = math.nextafter(10.0, -math.inf)
        assert brute_force_match(matcher, px, 50.0, None) == 0
        assert matcher.match_point(Point(px, 50.0)) == 0
        assert matcher.match_arrays(np.array([px]), np.array([50.0])).tolist() == [0]

    def test_direction_twins_tie_to_lowest_id(self, small_network):
        matcher = MapMatcher(small_network)
        seg = small_network.segment(0)
        reverse = small_network.segment_between(seg.end, seg.start)
        p = seg.point_at(0.5)
        lowest = min(seg.segment_id, reverse.segment_id)
        assert matcher.match_point(p) == lowest
        assert matcher.match_arrays(np.array([p.x]), np.array([p.y])).tolist() == [lowest]


class TestChunking:
    def _random(self, network, n, seed):
        rng = np.random.default_rng(seed)
        xmin, ymin, xmax, ymax = network.bounding_box()
        xs = rng.uniform(xmin - 100.0, xmax + 100.0, n)
        ys = rng.uniform(ymin - 100.0, ymax + 100.0, n)
        heads = rng.uniform(0.0, 360.0, n)
        heads[rng.random(n) < 0.9] = np.nan
        return xs, ys, heads

    def test_batch_over_chunk_bound_equals_slot_by_slot(self, small_network):
        matcher = MapMatcher(small_network)
        xs, ys, heads = self._random(small_network, 12_000, 5)
        keys = matcher.index.cell_keys(xs, ys)
        pairs = int(np.sum(matcher.index.indptr[keys + 1] - matcher.index.indptr[keys]))
        assert pairs > mapmatch._CHUNK_PAIRS
        whole = matcher.match_arrays(xs, ys, heads)
        slots = np.concatenate(
            [
                matcher.match_arrays(xs[i : i + 500], ys[i : i + 500], heads[i : i + 500])
                for i in range(0, xs.size, 500)
            ]
        )
        np.testing.assert_array_equal(whole, slots)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_tiny_chunks_change_nothing(self, small_network, monkeypatch, chunk):
        matcher = MapMatcher(small_network)
        xs, ys, heads = self._random(small_network, 400, 6)
        reference = matcher.match_arrays(xs, ys, heads)
        monkeypatch.setattr(mapmatch, "_CHUNK_PAIRS", chunk)
        np.testing.assert_array_equal(matcher.match_arrays(xs, ys, heads), reference)


class TestNonFinitePositions:
    @pytest.fixture(autouse=True)
    def _clean_obs(self):
        obs.disable()
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    def test_hostile_positions_rejected_and_counted(self, small_network):
        matcher = MapMatcher(small_network, max_distance_m=30.0)
        valid = [small_network.segment(i).point_at(0.5) for i in (0, 7, 20)]
        bad = [
            (math.nan, 0.0),
            (0.0, math.nan),
            (math.inf, 0.0),
            (0.0, -math.inf),
            (math.inf, -math.inf),
            (1e300, 0.0),
            (-1e300, -1e300),
        ]
        xs = np.array([p.x for p in valid] + [b[0] for b in bad])
        ys = np.array([p.y for p in valid] + [b[1] for b in bad])
        expected = [matcher.match_point(p) for p in valid]
        assert all(sid >= 0 for sid in expected)

        obs.enable()
        out = matcher.match_arrays(xs, ys, np.full(xs.size, np.nan))
        assert out.tolist() == expected + [-1] * len(bad)
        counters = obs_metrics.registry().snapshot()["counters"]
        assert counters["mapmatch.rejected_nonfinite"] == 5.0

        scalar = [matcher.match_point(Point(x, y)) for x, y in zip(xs, ys)]
        assert scalar == expected + [-1] * len(bad)
        counters = obs_metrics.registry().snapshot()["counters"]
        assert counters["mapmatch.rejected_nonfinite"] == 10.0

    def test_all_nonfinite_batch(self, small_network):
        matcher = MapMatcher(small_network)
        xs = np.array([math.nan, math.inf])
        assert matcher.match_arrays(xs, xs).tolist() == [-1, -1]
