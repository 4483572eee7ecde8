"""Time-dependent trip planning over estimated traffic.

The paper's first motivating application.  Plans fastest routes where
each link's cost is its traversal time *at the moment the vehicle
reaches it*, taken from the estimated TCM — a time-dependent shortest
path computed with a label-setting (Dijkstra-style) search over arrival
times, which is exact when link times satisfy FIFO (they do here:
within a slot the time is constant, and slot boundaries only change
speeds, never allow overtaking by waiting).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.apps.travel_time import TravelTimeService, check_finite_time
from repro.core.tcm import TrafficConditionMatrix
from repro.roadnet.network import RoadNetwork


@dataclass(frozen=True)
class TripPlan:
    """A planned trip.

    Attributes
    ----------
    origin, destination:
        Intersection ids.
    depart_s, arrive_s:
        Departure and predicted arrival times.
    segment_ids:
        The route as a segment sequence.
    """

    origin: int
    destination: int
    depart_s: float
    arrive_s: float
    segment_ids: List[int]

    @property
    def travel_time_s(self) -> float:
        return self.arrive_s - self.depart_s

    @property
    def num_links(self) -> int:
        return len(self.segment_ids)


class TripPlannerService:
    """Fastest-route planning over a completed TCM.

    Queries run on two array indexes, each built at the first
    :meth:`plan` that needs it: per-intersection out-edge lists of the
    covered segments (kept while the TCM's column list is unchanged) and
    a ``(slots, columns)`` float64 link-time matrix (dropped by every
    :meth:`refresh`).  Each is built into locals and published with one
    attribute assignment, so concurrent queries are safe; a refresh must
    not run concurrently with queries.

    Parameters
    ----------
    network:
        The road network.
    tcm:
        A complete (estimated) TCM covering the network's segments.
    """

    def __init__(self, network: RoadNetwork, tcm: TrafficConditionMatrix):
        self.network = network
        self.travel_time = TravelTimeService(network, tcm)
        # node -> [(end node, TCM column, segment id)] in networkx order.
        self._out_edges: Optional[Dict[int, List[Tuple[int, int, int]]]] = None
        self._link_times: Optional[np.ndarray] = None

    def refresh(self, tcm: TrafficConditionMatrix) -> None:
        """Swap in a newer estimate without rebuilding the planner."""
        columns = self.travel_time.tcm.segment_ids
        self.travel_time.refresh(tcm)
        self._link_times = None
        if tcm.segment_ids != columns:
            self._out_edges = None

    def _edges(self) -> Dict[int, List[Tuple[int, int, int]]]:
        edges = self._out_edges
        if edges is None:
            column_of = {
                sid: j for j, sid in enumerate(self.travel_time.tcm.segment_ids)
            }
            edges = {
                node.node_id: [
                    (seg.end, column_of[seg.segment_id], seg.segment_id)
                    for seg in self.network.outgoing_segments(node.node_id)
                    if seg.segment_id in column_of
                ]
                for node in self.network.intersections()
            }
            self._out_edges = edges
        return edges

    def _times(self) -> np.ndarray:
        times = self._link_times
        if times is None:
            times = self.travel_time.link_time_matrix()
            self._link_times = times
        return times

    def plan(
        self, origin: int, destination: int, depart_s: float
    ) -> Optional[TripPlan]:
        """Time-dependent fastest route; ``None`` if unreachable.

        Label-setting search on earliest arrival time per intersection.
        Raises ``KeyError`` for an unknown origin or destination and
        ``ValueError`` for a non-finite ``depart_s``.
        """
        check_finite_time(depart_s, "depart_s")
        edges = self._edges()
        for node in (origin, destination):
            if node not in edges:
                raise KeyError(f"intersection {node} not in the network")
        if origin == destination:
            return TripPlan(origin, destination, depart_s, depart_s, [])
        link_time = self._times().item
        grid = self.travel_time.tcm.grid
        start_s, slot_s, end_s = grid.start_s, grid.slot_s, grid.end_s
        last_slot = grid.num_slots - 1

        arrivals: Dict[int, float] = {origin: depart_s}
        back: Dict[int, Tuple[int, int]] = {}  # node -> (prev node, segment)
        heap: List[Tuple[float, int]] = [(depart_s, origin)]
        settled = set()

        while heap:
            t, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            if node == destination:
                break
            # Clamped to the grid, exactly as TimeGrid.slot_of + clamp.
            if t < start_s:
                slot = 0
            elif t >= end_s:
                slot = last_slot
            else:
                slot = int((t - start_s) // slot_s)
            for end, column, sid in edges[node]:
                arrive = t + link_time(slot, column)
                if arrive < arrivals.get(end, math.inf) - 1e-9:
                    arrivals[end] = arrive
                    back[end] = (node, sid)
                    heapq.heappush(heap, (arrive, end))

        if destination not in arrivals:
            return None
        route: List[int] = []
        node = destination
        while node != origin:
            prev, sid = back[node]
            route.append(sid)
            node = prev
        route.reverse()
        return TripPlan(
            origin=origin,
            destination=destination,
            depart_s=depart_s,
            arrive_s=arrivals[destination],
            segment_ids=route,
        )

    def compare_departures(
        self,
        origin: int,
        destination: int,
        depart_times_s,
    ) -> List[TripPlan]:
        """Plans for several candidate departure times (peak avoidance)."""
        plans = []
        for t in depart_times_s:
            plan = self.plan(origin, destination, float(t))
            if plan is not None:
                plans.append(plan)
        return plans
