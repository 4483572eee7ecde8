"""Tests for repro.apps.congestion."""

import numpy as np
import pytest

from repro.apps.congestion import CongestionMonitor
from repro.core.tcm import TimeGrid, TrafficConditionMatrix


@pytest.fixture()
def monitor(small_network):
    """Free-flow everywhere except: slot 1 congests segments 0/1 hard."""
    n = small_network.num_segments
    free = np.array(
        [small_network.segment(sid).free_flow_kmh for sid in small_network.segment_ids]
    )
    values = np.tile(free, (4, 1)).astype(float)
    values[1, 0] = free[0] * 0.2
    values[1, 1] = free[1] * 0.25
    tcm = TrafficConditionMatrix(
        values,
        grid=TimeGrid(0.0, 1800.0, 4),
        segment_ids=small_network.segment_ids,
    )
    return CongestionMonitor(small_network, tcm)


class TestValidation:
    def test_requires_complete(self, small_network, masked_tcm):
        with pytest.raises(ValueError, match="complete"):
            CongestionMonitor(small_network, masked_tcm)


class TestRefresh:
    def test_same_columns_reuse_free_flow(self, monitor, small_network, monkeypatch):
        calls = []
        lookup = small_network.segment
        monkeypatch.setattr(
            small_network, "segment", lambda sid: calls.append(sid) or lookup(sid)
        )
        tcm = monitor.tcm
        halved = TrafficConditionMatrix(
            tcm.values * 0.5, grid=tcm.grid, segment_ids=list(tcm.segment_ids)
        )
        monitor.refresh(halved)
        assert calls == []
        assert monitor.congestion_index[0] == pytest.approx(0.5)

    def test_new_columns_rebuild(self, monitor, small_network):
        ids = small_network.segment_ids[::-1][:5]
        free = np.array([small_network.segment(sid).free_flow_kmh for sid in ids])
        tcm = TrafficConditionMatrix(
            np.tile(free * 0.25, (2, 1)), grid=TimeGrid(0.0, 1800.0, 2), segment_ids=ids
        )
        monitor.refresh(tcm)
        assert monitor.congestion_index == pytest.approx(np.full((2, 5), 0.75))
        assert set(monitor.segment_ranking().segment_ids) == set(ids)
        clustered = [sid for h in monitor.hotspots(0, 0.5, 1) for sid in h.segment_ids]
        assert sorted(clustered) == sorted(ids)


class TestIndices:
    def test_free_flow_zero_congestion(self, monitor):
        index = monitor.congestion_index
        assert index[0].max() == pytest.approx(0.0, abs=1e-9)

    def test_congested_cells_flagged(self, monitor):
        index = monitor.congestion_index
        assert index[1, 0] == pytest.approx(0.8)
        assert index[1, 1] == pytest.approx(0.75)

    def test_index_bounded(self, monitor):
        index = monitor.congestion_index
        assert index.min() >= 0.0
        assert index.max() <= 1.0

    def test_network_series(self, monitor):
        series = monitor.network_congestion_series()
        assert series.shape == (4,)
        assert np.argmax(series) == 1

    def test_peak_slot(self, monitor):
        assert monitor.peak_slot() == 1

    def test_congested_fraction(self, monitor, small_network):
        frac = monitor.congested_fraction(threshold=0.5)
        assert frac[0] == 0.0
        assert frac[1] == pytest.approx(2 / small_network.num_segments)


class TestRanking:
    def test_worst_first(self, monitor):
        ranking = monitor.segment_ranking()
        assert ranking.segment_ids[0] == 0  # the hardest-hit segment
        assert ranking.scores == sorted(ranking.scores, reverse=True)

    def test_top_k(self, monitor):
        top = monitor.segment_ranking().top(2)
        assert len(top) == 2
        assert top[0][1] >= top[1][1]
        with pytest.raises(ValueError):
            monitor.segment_ranking().top(0)

    def test_slot_range(self, monitor):
        quiet = monitor.segment_ranking(slot_range=(2, 4))
        assert quiet.scores[0] == pytest.approx(0.0, abs=1e-9)
        with pytest.raises(ValueError):
            monitor.segment_ranking(slot_range=(3, 2))


class TestHotspots:
    def test_detects_adjacent_cluster(self, monitor, small_network):
        # Segments 0 and 1 are the two directions of the same street, so
        # they are adjacent and merge into one hotspot.
        hotspots = monitor.hotspots(slot=1, threshold=0.5, min_size=2)
        assert hotspots
        assert set(hotspots[0].segment_ids) >= {0, 1}
        assert hotspots[0].mean_congestion > 0.5

    def test_quiet_slot_no_hotspots(self, monitor):
        assert monitor.hotspots(slot=0, threshold=0.5) == []

    def test_min_size_filters_singletons(self, small_network):
        n = small_network.num_segments
        free = np.array(
            [small_network.segment(sid).free_flow_kmh for sid in small_network.segment_ids]
        )
        values = np.tile(free, (2, 1)).astype(float)
        values[0, 5] = free[5] * 0.1  # a single congested segment
        tcm = TrafficConditionMatrix(
            values, grid=TimeGrid(0.0, 1800.0, 2), segment_ids=small_network.segment_ids
        )
        monitor = CongestionMonitor(small_network, tcm)
        # Its reverse twin is adjacent but not congested -> singleton.
        assert monitor.hotspots(slot=0, threshold=0.5, min_size=2) == []
        assert monitor.hotspots(slot=0, threshold=0.5, min_size=1)

    def test_slot_bounds(self, monitor):
        with pytest.raises(IndexError):
            monitor.hotspots(slot=99)

    def test_on_synthesized_traffic(self, small_network, truth_tcm):
        monitor = CongestionMonitor(small_network, truth_tcm)
        series = monitor.network_congestion_series()
        # Diurnal structure: peak congestion well above the minimum.
        assert series.max() > series.min() + 0.1
