"""Time-dependent trip planning over estimated traffic.

The paper's first motivating application.  Plans fastest routes where
each link's cost is its traversal time *at the moment the vehicle
reaches it*, taken from the estimated TCM (constant within a slot).
The search is label-setting over arrival times: every intersection is
left at its own earliest arrival.  That is the true earliest arrival
when link times are FIFO (entering a link later never leaves it
earlier).  Slot boundaries can break FIFO: a link that speeds up at a
boundary may be left sooner when entered just after it, so a route that
reaches the link later can arrive first, and the planned arrival can be
later than the best one.

The search is A*: its heap is ordered by arrival plus a lower bound on
the time still needed, the fastest static path to the destination over
each link's fastest time in any slot.  No link is traversed faster than
that, so the bound is consistent, and every intersection is settled
with the label a plain Dijkstra search gives it.  A plan can differ
only where two arrivals at an intersection lie within the search's
1e-9 relaxation tolerance of each other.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.apps.travel_time import TravelTimeService, check_finite_time
from repro.core.tcm import TrafficConditionMatrix
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.roadnet.network import RoadNetwork

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix


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


@dataclass(frozen=True)
class _Graph:
    """The covered road graph over dense intersection positions.

    ``position`` numbers the intersections in id order; ``out[p]`` lists
    position ``p``'s covered out-links as ``(end position, TCM column,
    segment id)`` in networkx order, and ``links`` holds the same links
    as three rows: start positions, end positions and TCM columns.
    """

    position: Dict[int, int]
    out: List[List[Tuple[int, int, int]]]
    links: np.ndarray


class TripPlannerService:
    """Fastest-route planning over a completed TCM.

    Queries run on three indexes, each built at the first :meth:`plan`
    that needs it: the covered graph over dense intersection positions
    (kept while the TCM's column list is unchanged), a ``(slots,
    columns)`` float64 link-time matrix and the reversed graph of each
    link's fastest time that the A* bound is read from (both dropped by
    every :meth:`refresh`).  Each is built into locals and published
    with one attribute assignment, so concurrent queries are safe; a
    refresh must not run concurrently with queries.

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
        self._covered: Optional[_Graph] = None
        self._link_times: Optional[np.ndarray] = None
        self._fastest: Optional["csr_matrix"] = None

    def refresh(self, tcm: TrafficConditionMatrix) -> None:
        """Swap in a newer estimate without rebuilding the planner."""
        columns = self.travel_time.tcm.segment_ids
        self.travel_time.refresh(tcm)
        self._link_times = None
        self._fastest = None
        if tcm.segment_ids != columns:
            self._covered = None

    def _graph(self) -> _Graph:
        graph = self._covered
        if graph is None:
            column_of = {
                sid: j for j, sid in enumerate(self.travel_time.tcm.segment_ids)
            }
            nodes = [node.node_id for node in self.network.intersections()]
            position = {node: p for p, node in enumerate(nodes)}
            out = [
                [
                    (position[seg.end], column_of[seg.segment_id], seg.segment_id)
                    for seg in self.network.outgoing_segments(node)
                    if seg.segment_id in column_of
                ]
                for node in nodes
            ]
            links = np.array(
                [(p, end, j) for p, edges in enumerate(out) for end, j, _ in edges],
                dtype=np.intp,
            )
            graph = _Graph(position, out, links.reshape(-1, 3).T)
            self._covered = graph
        return graph

    def _times(self) -> np.ndarray:
        times = self._link_times
        if times is None:
            times = self.travel_time.link_time_matrix()
            self._link_times = times
        return times

    def _reverse(self) -> "csr_matrix":
        """The reversed covered graph, each link at its fastest time."""
        reverse = self._fastest
        if reverse is None:
            # Imported here, as for hotspots: only planning needs it.
            from scipy.sparse import csr_matrix

            graph = self._graph()
            size = len(graph.out)
            starts, ends, columns = graph.links
            # No pair has parallel links today (outgoing_segments reads a
            # DiGraph), but csr_matrix would sum them: keep each fastest.
            pairs, pair_of = np.unique(ends * size + starts, return_inverse=True)
            fastest = np.full(pairs.size, np.inf)
            np.minimum.at(fastest, pair_of, self._times().min(axis=0)[columns])
            reverse = csr_matrix(
                (fastest, np.divmod(pairs, size)), shape=(size, size)
            )
            self._fastest = reverse
        return reverse

    def plan(
        self, origin: int, destination: int, depart_s: float
    ) -> Optional[TripPlan]:
        """Time-dependent fastest route; ``None`` if unreachable.

        A* on arrival time per intersection, bounded below by one
        backward static search from the destination.  Raises
        ``KeyError`` for an unknown origin or destination and
        ``ValueError`` for a non-finite ``depart_s``.
        """
        check_finite_time(depart_s, "depart_s")
        graph = self._graph()
        for node in (origin, destination):
            if node not in graph.position:
                raise KeyError(f"intersection {node} not in the network")
        if origin == destination:
            return TripPlan(origin, destination, depart_s, depart_s, [])
        from scipy.sparse.csgraph import dijkstra

        source, target = graph.position[origin], graph.position[destination]
        # Shrunk a little, so rounding in its sums never lifts the bound
        # above the true remaining time; infinite where the destination
        # is out of reach.
        bound = (dijkstra(self._reverse(), indices=target) * (1.0 - 1e-9)).tolist()
        link_time = self._times().item
        grid = self.travel_time.tcm.grid
        start_s, slot_s, end_s = grid.start_s, grid.slot_s, grid.end_s
        last_slot = grid.num_slots - 1
        out = graph.out

        size = len(out)
        arrivals = [math.inf] * size
        arrivals[source] = depart_s
        back: List[Tuple[int, int]] = [(-1, -1)] * size  # (prev position, segment)
        settled = bytearray(size)
        heap: List[Tuple[float, int]] = []
        if bound[source] < math.inf:
            heap.append((depart_s + bound[source], source))

        while heap:
            _, node = heapq.heappop(heap)
            if settled[node]:
                continue
            settled[node] = 1
            if node == target:
                break
            t = arrivals[node]
            # Clamped to the grid, exactly as TimeGrid.slot_of + clamp.
            if t < start_s:
                slot = 0
            elif t >= end_s:
                slot = last_slot
            else:
                slot = int((t - start_s) // slot_s)
            for end, column, sid in out[node]:
                arrive = t + link_time(slot, column)
                if arrive < arrivals[end] - 1e-9 and bound[end] < math.inf:
                    arrivals[end] = arrive
                    back[end] = (node, sid)
                    heapq.heappush(heap, (arrive + bound[end], end))

        if obs_trace.enabled():
            obs_metrics.observe("apps.trip_planner.settled", settled.count(1))
        if not settled[target]:
            return None
        route: List[int] = []
        node = target
        while node != source:
            node, sid = back[node]
            route.append(sid)
        route.reverse()
        return TripPlan(
            origin=origin,
            destination=destination,
            depart_s=depart_s,
            arrive_s=arrivals[target],
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
