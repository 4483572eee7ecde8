"""Graph-walking reference implementations of the app queries.

The array-indexed services in :mod:`repro.apps` must answer exactly as
these do.  They walk the road network one segment at a time through
``RoadNetwork.adjacent_segments`` / ``outgoing_segments`` and price each
edge with ``TravelTimeService.link_time_s``, which is slow but easy to
read, so they serve as test oracles only.
"""

import heapq
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.apps.congestion import CongestionMonitor, CongestionRanking, Hotspot
from repro.apps.trip_planner import TripPlan, TripPlannerService


def reference_hotspots(
    monitor: CongestionMonitor, slot: int, threshold: float = 0.5, min_size: int = 2
) -> List[Hotspot]:
    """Breadth-first clusters of congested segments, worst mean first.

    Among tied means the order is whatever ``set.pop`` yields, so compare
    the result as a set.
    """
    row = monitor.congestion_index[slot]
    segment_ids = monitor.tcm.segment_ids
    congested: Set[int] = {segment_ids[j] for j in np.flatnonzero(row >= threshold)}
    col_of = {sid: j for j, sid in enumerate(segment_ids)}

    hotspots: List[Hotspot] = []
    unvisited = set(congested)
    while unvisited:
        seed = unvisited.pop()
        cluster = {seed}
        frontier = [seed]
        while frontier:
            sid = frontier.pop()
            for neighbour in monitor.network.adjacent_segments(sid):
                if neighbour in unvisited:
                    unvisited.discard(neighbour)
                    cluster.add(neighbour)
                    frontier.append(neighbour)
        if len(cluster) >= min_size:
            mean_c = float(np.mean([row[col_of[s]] for s in sorted(cluster)]))
            hotspots.append(
                Hotspot(slot=slot, segment_ids=sorted(cluster), mean_congestion=mean_c)
            )
    hotspots.sort(key=lambda h: -h.mean_congestion)
    return hotspots


def reference_ranking(
    monitor: CongestionMonitor, slot_range: Tuple[int, int]
) -> CongestionRanking:
    """Segments by mean congestion over a slot range, built per element."""
    lo, hi = slot_range
    means = monitor.congestion_index[lo:hi].mean(axis=0)
    order = np.argsort(means)[::-1]
    return CongestionRanking(
        segment_ids=[monitor.tcm.segment_ids[i] for i in order],
        scores=[float(means[i]) for i in order],
    )


def reference_plan(
    planner: TripPlannerService, origin: int, destination: int, depart_s: float
) -> Optional[TripPlan]:
    """Label-setting search walking ``outgoing_segments`` per settled node."""
    if origin == destination:
        return TripPlan(origin, destination, depart_s, depart_s, [])
    network = planner.network
    travel_time = planner.travel_time
    covered = set(travel_time.tcm.segment_ids)
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
        for seg in network.outgoing_segments(node):
            if seg.segment_id not in covered:
                continue
            arrive = t + travel_time.link_time_s(seg.segment_id, t)
            if arrive < arrivals.get(seg.end, float("inf")) - 1e-9:
                arrivals[seg.end] = arrive
                back[seg.end] = (node, seg.segment_id)
                heapq.heappush(heap, (arrive, seg.end))

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
