"""Congestion monitoring for traffic management.

Turns estimated speeds into management-grade indicators: a per-cell
congestion index relative to free-flow speed, per-segment and per-slot
rankings, and spatial hotspot extraction (connected clusters of
congested segments) — the "traffic management" and "road engineering"
consumers the paper's introduction motivates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.tcm import TrafficConditionMatrix
from repro.roadnet.network import RoadNetwork
from repro.utils.validation import check_fraction


@dataclass(frozen=True)
class CongestionRanking:
    """Segments ranked by a congestion statistic (worst first)."""

    segment_ids: List[int]
    scores: List[float]

    def top(self, k: int) -> List[Tuple[int, float]]:
        """The ``k`` most congested segments with their scores."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return list(zip(self.segment_ids[:k], self.scores[:k]))


@dataclass(frozen=True)
class Hotspot:
    """A connected cluster of congested segments in one slot."""

    slot: int
    segment_ids: List[int]
    mean_congestion: float


class CongestionMonitor:
    """Congestion analytics over a completed TCM.

    The congestion index of a cell is ``1 - speed / free_flow`` clamped
    to [0, 1]: 0 = free flow, 1 = standstill.

    :meth:`hotspots` uses an index of each column's endpoint
    intersections, built at the first hotspot query and kept while
    refreshes bring the same column list.  It is built into locals and
    published with one attribute assignment, so concurrent queries are
    safe; a refresh must not run concurrently with queries.

    Parameters
    ----------
    network:
        Provides free-flow speeds and segment endpoints (for hotspots).
    tcm:
        Complete (estimated) TCM.
    """

    def __init__(self, network: RoadNetwork, tcm: TrafficConditionMatrix):
        self.network = network
        # Per column list: free-flow speeds and segment ids (kept while a
        # refresh brings the same columns), and the hotspot index.
        self._free_flow: Optional[np.ndarray] = None
        self._column_ids = np.empty(0, dtype=np.int64)
        self._endpoints: Optional[Tuple[np.ndarray, int]] = None
        self.refresh(tcm)

    def refresh(self, tcm: TrafficConditionMatrix) -> None:
        """Swap in a newer estimate and recompute the congestion index."""
        if not tcm.is_complete:
            raise ValueError("congestion analytics need a complete TCM")
        if self._free_flow is None or tcm.segment_ids != self.tcm.segment_ids:
            free_flow = np.array(
                [self.network.segment(sid).free_flow_kmh for sid in tcm.segment_ids]
            )
            self._free_flow = free_flow
            self._column_ids = np.asarray(tcm.segment_ids, dtype=np.int64)
            self._endpoints = None
        self.tcm = tcm
        congestion = 1.0 - tcm.values_view / self._free_flow[None, :]
        self._congestion = np.clip(congestion, 0.0, 1.0, out=congestion)

    # ------------------------------------------------------------------
    @property
    def congestion_index(self) -> np.ndarray:
        """The (slots x segments) congestion index matrix."""
        return self._congestion.copy()

    def network_congestion_series(self) -> np.ndarray:
        """City-wide mean congestion per slot (the management dashboard)."""
        return self._congestion.mean(axis=1)

    def segment_ranking(
        self, slot_range: Optional[Tuple[int, int]] = None
    ) -> CongestionRanking:
        """Segments ranked by mean congestion over a slot range."""
        lo, hi = slot_range if slot_range else (0, self.tcm.num_slots)
        if not 0 <= lo < hi <= self.tcm.num_slots:
            raise ValueError(f"invalid slot range ({lo}, {hi})")
        means = self._congestion[lo:hi].mean(axis=0)
        order = np.argsort(means)[::-1]
        return CongestionRanking(
            segment_ids=self._column_ids[order].tolist(),
            scores=means[order].tolist(),
        )

    def peak_slot(self) -> int:
        """The slot with the highest city-wide congestion."""
        return int(np.argmax(self.network_congestion_series()))

    def congested_fraction(self, threshold: float = 0.5) -> np.ndarray:
        """Per-slot fraction of segments above a congestion threshold."""
        check_fraction(threshold, "threshold")
        return (self._congestion >= threshold).mean(axis=1)

    # ------------------------------------------------------------------
    def _endpoint_nodes(self) -> Tuple[np.ndarray, int]:
        """Per TCM column, its two endpoints as dense intersection indices."""
        endpoints = self._endpoints
        if endpoints is None:
            segments = self.network.segments()
            network_ids = np.array([seg.segment_id for seg in segments])
            nodes, dense = np.unique(
                [(seg.start, seg.end) for seg in segments], return_inverse=True
            )
            rows = np.searchsorted(network_ids, self._column_ids)
            endpoints = (dense.reshape(-1, 2)[rows], nodes.size)
            self._endpoints = endpoints
        return endpoints

    def hotspots(
        self, slot: int, threshold: float = 0.5, min_size: int = 2
    ) -> List[Hotspot]:
        """Connected clusters of congested segments in one slot.

        Two congested segments belong to the same hotspot when they share
        an endpoint intersection.  Clusters smaller than ``min_size`` are
        dropped (isolated noisy cells).  Each cluster lists its segment
        ids ascending; clusters come worst first, by ``mean_congestion``
        descending and then by lowest segment id.
        """
        check_fraction(threshold, "threshold")
        if not 0 <= slot < self.tcm.num_slots:
            raise IndexError(f"slot {slot} outside TCM")
        if min_size < 1:
            raise ValueError(f"min_size must be >= 1, got {min_size}")
        # Imported here: scipy.sparse adds ~20 MB to every process that
        # imports the apps, and only hotspot queries need it.
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        row = self._congestion[slot]
        cols = np.flatnonzero(row >= threshold)
        k = cols.size
        if k == 0:
            return []
        endpoints, num_nodes = self._endpoint_nodes()
        # Bipartite graph: congested segments 0..k-1 joined to their two
        # endpoint intersections k..k+num_nodes-1.
        size = k + num_nodes
        graph = csr_matrix(
            (
                np.ones(2 * k, dtype=np.int8),
                (np.repeat(np.arange(k), 2), k + endpoints[cols].ravel()),
            ),
            shape=(size, size),
        )
        _, labels = connected_components(graph, directed=False)
        ids = self._column_ids[cols]
        order = np.lexsort((ids, labels[:k]))
        labels, cols, ids = labels[:k][order], cols[order], ids[order]
        breaks = np.flatnonzero(np.diff(labels)) + 1
        starts = np.concatenate(([0], breaks))
        stops = np.concatenate((breaks, [k]))
        keep = stops - starts >= min_size
        hotspots = [
            Hotspot(
                slot=slot,
                segment_ids=ids[lo:hi].tolist(),
                mean_congestion=float(row[cols[lo:hi]].mean()),
            )
            for lo, hi in zip(starts[keep].tolist(), stops[keep].tolist())
        ]
        hotspots.sort(key=lambda h: (-h.mean_congestion, h.segment_ids[0]))
        return hotspots
