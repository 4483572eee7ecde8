"""Property-based tests for the streaming estimator and shift schedules."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.tcm import TimeGrid
from repro.mobility.shifts import ShiftSchedule
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.probes.aggregation import MAX_SPEED_KMH, aggregate_reports
from repro.probes.report import ProbeReport, ReportBatch
from repro.roadnet.generators import grid_city
from repro.scale import ShardedStreamingEstimator

#: Segment ids 0-7; the generated reports use 0-3.
NETWORK = grid_city(2, 2)

fast_settings = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

report_lists = st.lists(
    st.tuples(
        st.floats(0.0, 3600.0),   # time within an hour
        st.integers(0, 3),         # segment
        st.floats(5.0, 80.0),      # speed
    ),
    min_size=1,
    max_size=40,
)


def to_reports(raw):
    return [
        ProbeReport(i, t, 0.0, 0.0, speed, seg)
        for i, (t, seg, speed) in enumerate(sorted(raw))
    ]


class TestStreamingInvariants:
    @fast_settings
    @given(report_lists)
    def test_slot_count_matches_time_span(self, raw):
        streamer = ShardedStreamingEstimator(
            NETWORK, partitioner="single", slot_s=600.0, window_slots=4,
            cold_iterations=5, warm_iterations=2, seed=0,
        )
        streamer.ingest_many(to_reports(raw))
        streamer.flush()
        last_time = max(t for t, _, _ in raw)
        expected_slots = int(last_time // 600.0) + 1
        assert len(streamer.estimates) == expected_slots

    @fast_settings
    @given(report_lists)
    def test_slot_starts_contiguous(self, raw):
        streamer = ShardedStreamingEstimator(
            NETWORK, partitioner="single", slot_s=600.0, window_slots=4,
            cold_iterations=5, warm_iterations=2, seed=0,
        )
        streamer.ingest_many(to_reports(raw))
        streamer.flush()
        starts = [e.slot_start_s for e in streamer.estimates]
        assert starts == [600.0 * i for i in range(len(starts))]

    @fast_settings
    @given(report_lists)
    def test_estimates_finite_and_nonnegative(self, raw):
        streamer = ShardedStreamingEstimator(
            NETWORK, partitioner="single", slot_s=600.0, window_slots=4,
            cold_iterations=5, warm_iterations=2, seed=0,
        )
        streamer.ingest_many(to_reports(raw))
        streamer.flush()
        for est in streamer.estimates:
            assert np.all(np.isfinite(est.speeds_kmh))
            assert np.all(est.speeds_kmh >= 0.0)
            assert 0.0 <= est.observed_fraction <= 1.0

    @fast_settings
    @given(report_lists)
    def test_observed_slot_average_published(self, raw):
        """Where a slot observed a segment, the published value is the
        aggregation-filtered report mean, not the model output."""
        streamer = ShardedStreamingEstimator(
            NETWORK, partitioner="single", slot_s=600.0, window_slots=4,
            cold_iterations=5, warm_iterations=2,
            min_speed_kmh=2.0, seed=0,
        )
        streamer.ingest_many(to_reports(raw))
        streamer.flush()
        for t, seg, speed in raw:
            if speed < 2.0:
                continue
            slot = int(t // 600.0)
            expected = np.mean(
                [s for (tt, sg, s) in raw
                 if sg == seg and int(tt // 600.0) == slot and s >= 2.0]
            )
            published = streamer.estimates[slot].speeds_kmh[seg]
            assert published == pytest.approx(expected)


# ----------------------------------------------------------------------
# Hostile input through the one ingest path
# ----------------------------------------------------------------------
HOSTILE_NETWORK = grid_city(3, 3)
HOSTILE_IDS = sorted(HOSTILE_NETWORK.segment_ids)
SLOTS, SLOT_S = 6, 600.0
PARTITIONS = {
    "single": dict(partitioner="single"),
    "grid-2": dict(shards=2),
    "grid-3-halo-1": dict(shards=3, halo=1),
}
#: NaN, ±inf, negative, idle, the cap, just over it, absurd.
SPECIAL_SPEEDS = [
    float("nan"), float("inf"), float("-inf"), -5.0, 0.5, 150.0, 150.0001, 1e6,
]

#: Offsets that make a report's time NaN or ±inf: it has no slot.
SPECIAL_OFFSETS = [float("nan"), float("inf"), float("-inf")]


def _hostile_report(offsets):
    return st.tuples(
        st.integers(0, SLOTS - 1),                      # slot
        offsets,                                        # offset in the slot
        st.sampled_from(HOSTILE_IDS + [-1, 10_000]),    # segment
        st.one_of(st.floats(2.0, 149.0), st.sampled_from(SPECIAL_SPEEDS)),
    )


hostile_report = _hostile_report(
    st.one_of(st.floats(0.0, 599.0), st.sampled_from(SPECIAL_OFFSETS))
)
#: A late report has a slot, so its time is finite.
late_report = _hostile_report(st.floats(0.0, 599.0))


def _report(vid, slot, offset, seg, speed):
    return ProbeReport(vid, slot * SLOT_S + offset, 0.0, 0.0, speed, seg)


def _timed(r):
    return math.isfinite(r.time_s)


def _admitted(r):
    return (
        _timed(r) and r.segment_id in HOSTILE_IDS and 2.0 <= r.speed_kmh <= 150.0
    )


def _time_order(r):
    """Time order with NaN times last, as ``ReportBatch`` sorts."""
    return (r.time_s != r.time_s, 0.0 if r.time_s != r.time_s else r.time_s)


@st.composite
def hostile_streams(draw, late=True):
    """``(chunks, per_report, late reports)``: a time-ordered hostile
    stream with duplicates, split into ingest calls at random points
    (one report per call when ``per_report``), with late reports placed
    after the call that closed their slot."""
    raw = draw(st.lists(hostile_report, min_size=1, max_size=50))
    on_time = [_report(i, *r) for i, r in enumerate(raw)]
    on_time += [on_time[i] for i in draw(
        st.lists(st.integers(0, len(on_time) - 1), max_size=5)
    )]
    on_time.sort(key=_time_order)
    per_report = draw(st.booleans())
    if per_report:
        chunks = [[r] for r in on_time]
    else:
        cuts = sorted(set(draw(
            st.lists(st.integers(1, len(on_time)), max_size=6)
        )))
        chunks = [
            on_time[lo:hi] for lo, hi in zip([0] + cuts, cuts + [len(on_time)])
        ]
    lates = []
    if late:
        extra = draw(st.lists(
            st.tuples(late_report, st.integers(0, 3)), max_size=4
        ))
        for k, ((slot, offset, seg, speed), delay) in enumerate(extra):
            closer = next(
                (c for c, chunk in enumerate(chunks)
                 if any(_timed(r) and r.time_s >= (slot + 1) * SLOT_S
                        for r in chunk)),
                None,
            )
            if closer is None:
                continue  # nothing closes that slot: the report is on time
            stale = _report(1000 + k, slot, offset, seg, speed)
            place = closer + 1 + delay
            if per_report or place >= len(chunks):
                chunks.insert(min(place, len(chunks)), [stale])
            else:
                chunks[place].append(stale)
            lates.append(stale)
    return chunks, per_report, lates


def _stream(partition):
    return ShardedStreamingEstimator(
        HOSTILE_NETWORK, slot_s=SLOT_S, window_slots=4,
        warm_iterations=3, cold_iterations=6, seed=0, **PARTITIONS[partition],
    )


def _flushed(est):
    """Flush ``est`` to :data:`SLOTS` rows; the estimator and its rows."""
    while len(est.estimates) < SLOTS:
        est.flush()
    return est, np.vstack([e.speeds_kmh for e in est.estimates])


def _publish(partition, chunks, per_report):
    est = _stream(partition)
    for chunk in filter(None, chunks):
        if per_report:
            for r in chunk:
                est.ingest(r)
        else:
            est.ingest_batch(ReportBatch(chunk))
    return _flushed(est)


def _counted(run):
    """``run()`` with observability on; its result and counters."""
    obs_trace.reset()
    obs_metrics.reset()
    obs_trace.enable()
    try:
        result = run()
        counters = obs_metrics.registry().snapshot()["counters"]
    finally:
        obs_trace.disable()
        obs_trace.reset()
        obs_metrics.reset()
    return result, counters


hostile_settings = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.mark.parametrize("partition", sorted(PARTITIONS))
class TestHostileIngest:
    """One admission rule for every ingest path and partition."""

    @hostile_settings
    @given(hostile_streams())
    def test_rejected_reports_leave_no_trace(self, partition, stream):
        chunks, per_report, lates = stream
        (est, rows), counters = _counted(
            lambda: _publish(partition, chunks, per_report)
        )
        n = len(HOSTILE_IDS)
        assert est.segment_ids == HOSTILE_IDS
        assert rows.shape == (SLOTS, n)
        assert np.isfinite(rows).all()
        assert rows.min() >= 0.0 and rows.max() <= MAX_SPEED_KMH

        late_ids = {id(r) for r in lates}
        clean = [
            [r for r in chunk if id(r) not in late_ids and _admitted(r)]
            for chunk in chunks
        ]
        _, clean_rows = _publish(partition, clean, per_report)
        assert np.array_equal(rows, clean_rows)

        on_time = [
            r for chunk in chunks for r in chunk if id(r) not in late_ids
        ]
        speeds = np.array([r.speed_kmh for r in on_time if _timed(r)])
        finite = np.isfinite(speeds)
        untimed = sum(not _timed(r) for r in on_time)
        expected = {
            "stream.rejected_late": len(lates),
            "stream.rejected_nonfinite": untimed + int(np.count_nonzero(~finite)),
            "stream.rejected_overspeed": int(
                np.count_nonzero(speeds[finite] > MAX_SPEED_KMH)
            ),
        }
        for name, count in expected.items():
            assert counters.get(name, 0.0) == count, name

    @hostile_settings
    @given(hostile_streams(late=False))
    def test_observed_cells_match_batch_aggregation(self, partition, stream):
        chunks, per_report, _ = stream
        est, rows = _publish(partition, chunks, per_report)
        reports = [r for chunk in chunks for r in chunk]
        tcm = aggregate_reports(
            ReportBatch(reports), TimeGrid(0.0, SLOT_S, SLOTS), HOSTILE_IDS
        )
        # A slot whose admitted reports span two ingest_batch calls sums
        # them in two parts: equal to rounding, not bit for bit.
        slot_calls = {}
        for c, chunk in enumerate(chunks):
            for r in filter(_admitted, chunk):
                slot_calls.setdefault(int(r.time_s // SLOT_S), set()).add(c)
        one_call = per_report or all(len(c) == 1 for c in slot_calls.values())
        for t in range(SLOTS):
            observed = tcm.mask[t]
            assert est.estimates[t].observed_fraction == observed.mean()
            if one_call:
                assert np.array_equal(rows[t][observed], tcm.values[t][observed])
            else:
                np.testing.assert_allclose(
                    rows[t][observed], tcm.values[t][observed], rtol=1e-12
                )

    @hostile_settings
    @given(hostile_streams(late=False))
    def test_ingest_paths_agree(self, partition, stream):
        chunks, _, _ = stream
        reports = [r for chunk in chunks for r in chunk]

        def via_many():
            est = _stream(partition)
            est.ingest_many(reports)
            return _flushed(est)[1]

        (rows, counters), *others = [
            _counted(lambda: _publish(partition, [reports], True)[1]),
            _counted(lambda: _publish(partition, [reports], False)[1]),
            _counted(via_many),
        ]
        for other_rows, other_counters in others:
            assert np.array_equal(rows, other_rows)
            assert _rejections(counters) == _rejections(other_counters)


def _rejections(counters):
    return {k: v for k, v in counters.items() if k.startswith("stream.rejected_")}


class TestShiftScheduleProperties:
    @fast_settings
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=24, max_size=24),
        st.floats(0.0, 7 * 86_400.0),
    )
    def test_duty_fraction_bounded(self, duty, t):
        schedule = ShiftSchedule(tuple(duty))
        assert 0.0 <= schedule.duty_fraction(t) <= 1.0

    @fast_settings
    @given(st.lists(st.floats(0.0, 1.0), min_size=24, max_size=24))
    def test_windows_partition_monotone_in_phase(self, duty):
        """A lower-phase vehicle is on duty whenever a higher one is."""
        schedule = ShiftSchedule(tuple(duty))
        low = schedule.duty_windows(0.1, 0.0, 86_400.0)
        high = schedule.duty_windows(0.9, 0.0, 86_400.0)

        def total(windows):
            return sum(e - s for s, e in windows)

        assert total(low) >= total(high)

    @fast_settings
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=24, max_size=24),
        st.floats(0.0, 0.999),
    )
    def test_windows_within_range_and_ordered(self, duty, phase):
        schedule = ShiftSchedule(tuple(duty))
        windows = schedule.duty_windows(phase, 1000.0, 90_000.0)
        prev_end = 1000.0
        for start, end in windows:
            assert 1000.0 <= start < end <= 90_000.0
            assert start >= prev_end
            prev_end = end
