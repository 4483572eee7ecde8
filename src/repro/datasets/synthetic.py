"""Synthetic probe datasets standing in for Shanghai/Shenzhen taxi data.

:func:`build_probe_dataset` runs the full substrate pipeline — network,
ground-truth traffic, fleet simulation, aggregation — and packages the
artifacts.  :func:`shanghai_dataset` / :func:`shenzhen_dataset` pin the
paper's experiment configurations (221 / 198 downtown segments, one
week, configurable fleet size and granularity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.tcm import TimeGrid, TrafficConditionMatrix
from repro.mobility.fleet import FleetConfig, FleetSimulator
from repro.probes.aggregation import aggregate_reports
from repro.probes.report import ReportBatch
from repro.roadnet.generators import (
    shanghai_downtown_like,
    shenzhen_downtown_like,
)
from repro.roadnet.network import RoadNetwork
from repro.traffic.dynamics import TrafficDynamicsConfig
from repro.traffic.groundtruth import GroundTruthTraffic
from repro.utils.rng import SeedLike, ensure_rng, spawn_rngs

BASE_SLOT_S = 900.0  # finest granularity (15 min); coarser grids derive from it


@dataclass
class SyntheticDatasetConfig:
    """End-to-end dataset generation parameters.

    Attributes
    ----------
    days:
        Simulated duration (paper: one week for Section 4, 24 h for the
        Section 2.3 integrity study).
    num_vehicles:
        Probe fleet size.
    slot_s:
        Time granularity of the produced matrices.
    dynamics:
        Ground-truth traffic generator settings.
    fleet:
        Fleet behaviour; its ``num_vehicles`` is overridden by
        ``num_vehicles`` here.
    """

    days: float = 7.0
    num_vehicles: int = 2_000
    slot_s: float = 1800.0
    dynamics: TrafficDynamicsConfig = field(default_factory=TrafficDynamicsConfig)
    fleet: FleetConfig = field(default_factory=FleetConfig)

    def __post_init__(self) -> None:
        if self.days <= 0:
            raise ValueError(f"days must be positive, got {self.days}")
        if self.num_vehicles < 1:
            raise ValueError(f"num_vehicles must be >= 1, got {self.num_vehicles}")
        ratio = self.slot_s / BASE_SLOT_S
        if abs(ratio - round(ratio)) > 1e-9 or ratio < 1:
            raise ValueError(
                f"slot_s must be a multiple of the base {BASE_SLOT_S:.0f} s"
            )


@dataclass
class ProbeDataset:
    """A complete synthetic experiment dataset.

    Attributes
    ----------
    network:
        The road network.
    ground_truth:
        Complete traffic state at the requested granularity — the
        "original matrix" X of Section 4.1.
    reports:
        The surviving probe reports.
    measurements:
        The aggregated measurement TCM (M, B) at the requested
        granularity.
    fine_truth:
        Ground truth at the base 15-minute granularity, from which
        coarser granularities can be derived without re-simulating.
    """

    network: RoadNetwork
    ground_truth: GroundTruthTraffic
    reports: ReportBatch
    measurements: TrafficConditionMatrix
    fine_truth: GroundTruthTraffic

    @property
    def truth_tcm(self) -> TrafficConditionMatrix:
        return self.ground_truth.tcm

    def at_granularity(self, slot_s: float) -> "ProbeDataset":
        """Re-aggregate the same simulation at a coarser granularity."""
        truth = self.fine_truth.resample(slot_s)
        measurements = aggregate_reports(
            self.reports, truth.grid, self.network.segment_ids
        )
        return ProbeDataset(
            network=self.network,
            ground_truth=truth,
            reports=self.reports,
            measurements=measurements,
            fine_truth=self.fine_truth,
        )


def build_probe_dataset(
    network: RoadNetwork,
    config: Optional[SyntheticDatasetConfig] = None,
    seed: SeedLike = 0,
) -> ProbeDataset:
    """Generate a full dataset over ``network``.

    One master seed deterministically derives the traffic, fleet, and
    any later masking streams.
    """
    config = config or SyntheticDatasetConfig()
    traffic_rng, fleet_rng = spawn_rngs(seed, 2)

    fine_grid = TimeGrid.over_days(config.days, BASE_SLOT_S)
    fine_truth = GroundTruthTraffic.synthesize(
        network, fine_grid, config=config.dynamics, seed=traffic_rng
    )

    fleet_config = config.fleet
    if fleet_config.num_vehicles != config.num_vehicles:
        fleet_config = FleetConfig(
            num_vehicles=config.num_vehicles,
            reporting=fleet_config.reporting,
            dropout=fleet_config.dropout,
            vehicle=fleet_config.vehicle,
            uniform_floor=fleet_config.uniform_floor,
        )
    simulator = FleetSimulator(fine_truth, config=fleet_config, seed=fleet_rng)
    reports = simulator.run()

    truth = fine_truth.resample(config.slot_s)
    measurements = aggregate_reports(reports, truth.grid, network.segment_ids)
    return ProbeDataset(
        network=network,
        ground_truth=truth,
        reports=reports,
        measurements=measurements,
        fine_truth=fine_truth,
    )


def shanghai_dataset(
    days: float = 7.0,
    num_vehicles: int = 2_000,
    slot_s: float = 1800.0,
    seed: SeedLike = 0,
) -> ProbeDataset:
    """The paper's Shanghai configuration: 221 downtown segments.

    Shanghai's probe fleet is the denser of the two (Section 4.3 notes
    its lower estimate errors stem from denser coverage).
    """
    network = shanghai_downtown_like(seed=0)
    config = SyntheticDatasetConfig(
        days=days, num_vehicles=num_vehicles, slot_s=slot_s
    )
    return build_probe_dataset(network, config, seed=seed)


def shenzhen_dataset(
    days: float = 7.0,
    num_vehicles: int = 8_000,
    slot_s: float = 1800.0,
    seed: SeedLike = 1,
) -> ProbeDataset:
    """The paper's Shenzhen configuration: 198 downtown segments.

    The fleet is nominally larger (8,000 taxis) but spread over the whole
    city; over the downtown subnetwork its *effective* density is lower
    than Shanghai's, which the paper cites as the reason Shenzhen errors
    run higher.  We model that by a lower hotspot concentration (higher
    uniform floor) so fewer of the simulated vehicles frequent the
    downtown network, after scaling the nominal fleet down to the
    subnetwork scale.
    """
    network = shenzhen_downtown_like(seed=1)
    # The 8,000-taxi fleet covers all of Shenzhen; roughly a quarter of
    # the paper's Shanghai density reaches this downtown subnetwork.
    effective_vehicles = max(50, num_vehicles // 8)
    config = SyntheticDatasetConfig(
        days=days,
        num_vehicles=effective_vehicles,
        slot_s=slot_s,
        fleet=FleetConfig(num_vehicles=effective_vehicles, uniform_floor=0.5),
    )
    return build_probe_dataset(network, config, seed=seed)
