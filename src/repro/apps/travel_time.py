"""Travel times from estimated traffic conditions.

Converts a (complete) traffic condition matrix — estimated speeds per
(slot, segment) — into link traversal times and route travel times,
including *time-expanded* route times where each link is traversed at
the speed of the slot the vehicle actually reaches it in.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.tcm import TrafficConditionMatrix
from repro.roadnet.network import RoadNetwork
from repro.utils.validation import check_finite_time, check_positive

#: Floor on estimated speeds before they divide a link length.
MIN_LINK_SPEED_KMH = 3.0


class TravelTimeService:
    """Link/route travel times over a completed TCM.

    Estimated speeds are floored at :data:`MIN_LINK_SPEED_KMH` before
    division, so a zero estimate never yields an infinite travel time.

    Parameters
    ----------
    network:
        Road network the TCM's segments belong to.
    tcm:
        A *complete* TCM (run the estimator first); its segment ids
        must all exist in the network.
    """

    def __init__(self, network: RoadNetwork, tcm: TrafficConditionMatrix):
        self.network = network
        self._known = frozenset(network.segment_ids)
        self._columns: Optional[List[int]] = None
        self.refresh(tcm)

    def refresh(self, tcm: TrafficConditionMatrix) -> None:
        """Swap in a newer estimate (e.g. after a streaming update).

        Revalidates the TCM exactly like construction, so a long-lived
        service can follow a continuously re-estimated metropolitan
        network; the segment ids are checked against the network only
        when the column list differs from the previous estimate's.  The
        speed floor is applied per lookup, so no copy of the estimate is
        made.
        """
        if not tcm.is_complete:
            raise ValueError("travel times need a complete (estimated) TCM")
        if tcm.segment_ids != self._columns:
            missing = [sid for sid in tcm.segment_ids if sid not in self._known]
            if missing:
                raise ValueError(f"TCM segments not in network: {missing[:5]}")
            self._columns = tcm.segment_ids
        self.tcm = tcm
        self._values = tcm.values_view

    # ------------------------------------------------------------------
    def speed_kmh(self, segment_id: int, time_s: float) -> float:
        """Estimated speed on a segment at a time (clamped to the grid).

        Raises ``ValueError`` for a non-finite ``time_s`` and ``KeyError``
        for a segment the TCM does not cover.
        """
        check_finite_time(time_s, "time_s")
        slot = self.tcm.grid.slot_of(time_s)
        if slot is None:
            slot = 0 if time_s < self.tcm.grid.start_s else self.tcm.num_slots - 1
        speed = self._values.item(slot, self.tcm.column_of(segment_id))
        floor = MIN_LINK_SPEED_KMH
        return floor if floor > speed else speed  # np.maximum, NaN included

    def link_time_s(self, segment_id: int, time_s: float) -> float:
        """Traversal time of one segment entered at ``time_s``."""
        seg = self.network.segment(segment_id)
        return seg.length_m / (self.speed_kmh(segment_id, time_s) / 3.6)

    def link_time_matrix(self) -> np.ndarray:
        """``(slots, columns)`` traversal times of every TCM column.

        Entry ``[slot, j]`` equals :meth:`link_time_s` for column ``j``
        entered in ``slot``, bit for bit (the same IEEE operations).
        """
        lengths = np.array(
            [self.network.segment(sid).length_m for sid in self.tcm.segment_ids]
        )
        times = np.maximum(self._values, MIN_LINK_SPEED_KMH)
        times /= 3.6
        np.divide(lengths, times, out=times)
        return times

    def route_time_s(
        self, segment_ids: Sequence[int], depart_s: float
    ) -> float:
        """Time-expanded travel time of a segment route.

        Each link is traversed at the estimated speed of the slot the
        vehicle reaches it in, so long routes correctly experience
        changing conditions en route.  Raises ``ValueError`` for a
        non-finite ``depart_s``.
        """
        check_finite_time(depart_s, "depart_s")
        t = depart_s
        for sid in segment_ids:
            t += self.link_time_s(sid, t)
        return t - depart_s

    def route_time_profile(
        self,
        segment_ids: Sequence[int],
        depart_times_s: Sequence[float],
    ) -> np.ndarray:
        """Route travel time for each candidate departure time."""
        return np.array(
            [self.route_time_s(segment_ids, t) for t in depart_times_s]
        )

    def best_departure(
        self,
        segment_ids: Sequence[int],
        window_start_s: float,
        window_end_s: float,
        step_s: float = 900.0,
    ) -> tuple:
        """Departure time within a window minimizing route travel time.

        Returns ``(depart_s, travel_time_s)``.
        """
        if window_end_s <= window_start_s:
            raise ValueError("empty departure window")
        check_positive(step_s, "step_s")
        candidates = np.arange(window_start_s, window_end_s, step_s)
        times = self.route_time_profile(segment_ids, candidates)
        best = int(np.argmin(times))
        return float(candidates[best]), float(times[best])
