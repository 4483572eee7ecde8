"""Ground-truth traffic state shared by the fleet simulator and the evaluation.

:class:`GroundTruthTraffic` binds a road network, a time grid, and a
complete TCM.  The mobility simulator queries it for the flow speed a
vehicle experiences on a given segment at a given time; the experiment
harness uses the same matrix as the "original matrix" X against which
estimates are scored (the paper uses a near-complete downtown matrix the
same way, Section 4.1).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.tcm import TimeGrid, TrafficConditionMatrix
from repro.roadnet.network import RoadNetwork
from repro.traffic.congestion import CongestionIncident
from repro.traffic.dynamics import TrafficDynamicsConfig, synthesize_tcm
from repro.utils.rng import SeedLike


class GroundTruthTraffic:
    """Complete traffic state of a network over a time window.

    Parameters
    ----------
    network:
        The road network.
    tcm:
        A *complete* TCM whose columns follow ``network.segment_ids``.
    """

    def __init__(self, network: RoadNetwork, tcm: TrafficConditionMatrix):
        if not tcm.is_complete:
            raise ValueError("ground truth requires a complete TCM")
        if tcm.segment_ids != network.segment_ids:
            raise ValueError("TCM columns must match network segment ids")
        self.network = network
        self.tcm = tcm
        self._values = tcm.values
        self._col_of = {sid: j for j, sid in enumerate(tcm.segment_ids)}

    @classmethod
    def synthesize(
        cls,
        network: RoadNetwork,
        grid: TimeGrid,
        config: Optional[TrafficDynamicsConfig] = None,
        seed: SeedLike = None,
        incidents: Optional[Sequence[CongestionIncident]] = None,
    ) -> "GroundTruthTraffic":
        """Generate ground truth with :func:`repro.traffic.synthesize_tcm`."""
        tcm = synthesize_tcm(network, grid, config=config, seed=seed, incidents=incidents)
        return cls(network, tcm)

    @property
    def grid(self) -> TimeGrid:
        return self.tcm.grid

    def speed_kmh(self, segment_id: int, time_s: float) -> float:
        """Mean flow speed on a segment at an absolute time.

        Times outside the grid (±inf included) clamp to the first/last
        slot, so vehicles that start a traversal just before the window
        end still move.  A NaN time is in no slot and raises
        ``ValueError``.
        """
        slot = self.grid.slot_of(time_s)
        if slot is None:
            if time_s != time_s:
                raise ValueError(f"time_s must not be NaN, got {time_s!r}")
            slot = 0 if time_s < self.grid.start_s else self.grid.num_slots - 1
        return float(self._values[slot, self._col_of[segment_id]])

    def speeds_at_slot(self, slot: int) -> np.ndarray:
        """All segment speeds for one slot, in segment-id order."""
        if not 0 <= slot < self.grid.num_slots:
            raise IndexError(f"slot {slot} outside grid")
        return self._values[slot].copy()

    def resample(self, slot_s: float) -> "GroundTruthTraffic":
        """Ground truth re-aggregated at a coarser granularity.

        Slot length must be an integer multiple of the current one; new
        values are means of the covered fine slots (speeds are averages,
        so the mean is the right aggregate).  Used to derive the paper's
        15/30/60-minute variants from one fine-grained truth.
        """
        ratio = slot_s / self.grid.slot_s
        if abs(ratio - round(ratio)) > 1e-9 or ratio < 1:
            raise ValueError(
                f"slot_s {slot_s} must be an integer multiple of {self.grid.slot_s}"
            )
        ratio = int(round(ratio))
        if ratio == 1:
            return self
        usable = (self.grid.num_slots // ratio) * ratio
        if usable == 0:
            raise ValueError("grid too short for requested granularity")
        values = self._values[:usable]
        coarse = values.reshape(usable // ratio, ratio, -1).mean(axis=1)
        grid = TimeGrid(
            start_s=self.grid.start_s, slot_s=slot_s, num_slots=usable // ratio
        )
        tcm = TrafficConditionMatrix(
            coarse, grid=grid, segment_ids=self.tcm.segment_ids
        )
        return GroundTruthTraffic(self.network, tcm)
