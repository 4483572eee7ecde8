"""Probe data reports.

A probe update is ``s_v(t) = <id_v, p_v(t), q_v(t), t>`` — vehicle id,
location, instantaneous GPS speed, timestamp (Section 2.2).  The paper
notes a report is ~40 bytes; we keep the record lightweight (a NamedTuple)
and provide :class:`ReportBatch` for columnar, NumPy-friendly access when
millions of reports are aggregated.

``segment_id`` carries the simulator's knowledge of the true segment the
vehicle was on: ``-1`` means unknown, in which case the monitoring center
must map-match from the (x, y) position.

:class:`ReportBatch` is columnar first: the NumPy arrays are the source
of truth, and the per-report :class:`ProbeReport` tuples are materialized
lazily only when somebody iterates.  Filtering, fleet subsetting, and
attaching map-matched segment ids therefore run as array operations with
no per-report Python work.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np


class ProbeReport(NamedTuple):
    """One probe vehicle update received by the monitoring center.

    ``heading_deg`` is the GPS course over ground (0 = north, clockwise)
    when the receiver provides one; NaN otherwise.  Heading lets the
    map matcher distinguish the two directions of a street — traffic
    conditions are directional.
    """

    vehicle_id: int
    time_s: float
    x: float
    y: float
    speed_kmh: float
    segment_id: int = -1
    heading_deg: float = float("nan")

    @property
    def has_segment(self) -> bool:
        """Whether the true segment id is attached (simulator path)."""
        return self.segment_id >= 0

    @property
    def has_heading(self) -> bool:
        """Whether a GPS heading is attached."""
        return self.heading_deg == self.heading_deg  # not NaN


def _time_order(report: ProbeReport) -> Tuple[bool, float]:
    """Sort key by time with NaN times last, the order ``np.argsort`` gives."""
    nan = report.time_s != report.time_s
    return (nan, 0.0 if nan else report.time_s)


class ReportBatch:
    """Columnar view over a collection of probe reports.

    Construction sorts by timestamp, matching the arrival order the
    monitoring center would process; reports with a NaN time go last, in
    their given order, as in :meth:`from_columns`.
    """

    def __init__(self, reports: Iterable[ProbeReport]):
        reports = list(reports)
        reports.sort(key=_time_order)
        self._report_list: Optional[List[ProbeReport]] = reports
        if reports:
            self.vehicle_ids = np.array([r.vehicle_id for r in reports], dtype=np.int64)
            self.times_s = np.array([r.time_s for r in reports], dtype=np.float64)
            self.xs = np.array([r.x for r in reports], dtype=np.float64)
            self.ys = np.array([r.y for r in reports], dtype=np.float64)
            self.speeds_kmh = np.array([r.speed_kmh for r in reports], dtype=np.float64)
            self.segment_ids = np.array([r.segment_id for r in reports], dtype=np.int64)
            self.headings_deg = np.array(
                [r.heading_deg for r in reports], dtype=np.float64
            )
        else:
            self.vehicle_ids = np.empty(0, dtype=np.int64)
            self.times_s = np.empty(0, dtype=np.float64)
            self.xs = np.empty(0, dtype=np.float64)
            self.ys = np.empty(0, dtype=np.float64)
            self.speeds_kmh = np.empty(0, dtype=np.float64)
            self.segment_ids = np.empty(0, dtype=np.int64)
            self.headings_deg = np.empty(0, dtype=np.float64)

    @classmethod
    def from_columns(
        cls,
        vehicle_ids: np.ndarray,
        times_s: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        speeds_kmh: np.ndarray,
        segment_ids: Optional[np.ndarray] = None,
        headings_deg: Optional[np.ndarray] = None,
        assume_sorted: bool = False,
    ) -> "ReportBatch":
        """Build a batch directly from column arrays (no per-report work).

        ``assume_sorted=True`` skips the stable time sort when the caller
        guarantees the columns are already in arrival order (e.g. they
        were sliced from an existing batch).  The per-report tuples are
        materialized lazily on first iteration.
        """
        batch = cls.__new__(cls)
        batch._report_list = None
        n = np.asarray(times_s).shape[0]
        batch.vehicle_ids = np.ascontiguousarray(vehicle_ids, dtype=np.int64)
        batch.times_s = np.ascontiguousarray(times_s, dtype=np.float64)
        batch.xs = np.ascontiguousarray(xs, dtype=np.float64)
        batch.ys = np.ascontiguousarray(ys, dtype=np.float64)
        batch.speeds_kmh = np.ascontiguousarray(speeds_kmh, dtype=np.float64)
        if segment_ids is None:
            batch.segment_ids = np.full(n, -1, dtype=np.int64)
        else:
            batch.segment_ids = np.ascontiguousarray(segment_ids, dtype=np.int64)
        if headings_deg is None:
            batch.headings_deg = np.full(n, np.nan, dtype=np.float64)
        else:
            batch.headings_deg = np.ascontiguousarray(headings_deg, dtype=np.float64)
        columns = (
            batch.vehicle_ids,
            batch.times_s,
            batch.xs,
            batch.ys,
            batch.speeds_kmh,
            batch.segment_ids,
            batch.headings_deg,
        )
        if any(col.ndim != 1 or col.shape[0] != n for col in columns):
            raise ValueError("all columns must be 1-D arrays of equal length")
        if not assume_sorted and n:
            order = np.argsort(batch.times_s, kind="stable")
            if np.any(order[1:] < order[:-1]):
                batch.vehicle_ids = batch.vehicle_ids[order]
                batch.times_s = batch.times_s[order]
                batch.xs = batch.xs[order]
                batch.ys = batch.ys[order]
                batch.speeds_kmh = batch.speeds_kmh[order]
                batch.segment_ids = batch.segment_ids[order]
                batch.headings_deg = batch.headings_deg[order]
        return batch

    def _select(self, keep: np.ndarray) -> "ReportBatch":
        """Sub-batch of the rows selected by a boolean/index array."""
        return ReportBatch.from_columns(
            self.vehicle_ids[keep],
            self.times_s[keep],
            self.xs[keep],
            self.ys[keep],
            self.speeds_kmh[keep],
            self.segment_ids[keep],
            self.headings_deg[keep],
            assume_sorted=True,
        )

    @property
    def _reports(self) -> List[ProbeReport]:
        """The per-report tuples, materialized from the columns on demand."""
        if self._report_list is None:
            self._report_list = [
                ProbeReport(int(v), float(t), float(x), float(y), float(s), int(g), float(h))
                for v, t, x, y, s, g, h in zip(
                    self.vehicle_ids,
                    self.times_s,
                    self.xs,
                    self.ys,
                    self.speeds_kmh,
                    self.segment_ids,
                    self.headings_deg,
                )
            ]
        return self._report_list

    def __len__(self) -> int:
        return int(self.times_s.shape[0])

    def __iter__(self) -> Iterator[ProbeReport]:
        return iter(self._reports)

    def __getitem__(self, index: int) -> ProbeReport:
        return self._reports[index]

    @property
    def num_vehicles(self) -> int:
        """Distinct vehicles contributing at least one report."""
        if not len(self):
            return 0
        return int(np.unique(self.vehicle_ids).size)

    def time_span_s(self) -> float:
        """Seconds between first and last report (0 if fewer than 2)."""
        if len(self) < 2:
            return 0.0
        return float(self.times_s[-1] - self.times_s[0])

    def for_vehicle(self, vehicle_id: int) -> "ReportBatch":
        """Sub-batch of one vehicle's reports (the paper's S_v)."""
        return self._select(self.vehicle_ids == int(vehicle_id))

    def filter_speed(self, min_kmh: float) -> "ReportBatch":
        """Drop reports slower than ``min_kmh`` (idle/parked vehicles)."""
        return self._select(self.speeds_kmh >= min_kmh)

    def filter_segments(self, segment_ids: Iterable[int]) -> "ReportBatch":
        """Keep only reports matched to one of ``segment_ids``."""
        wanted = np.unique(
            np.fromiter((int(s) for s in segment_ids), dtype=np.int64)
        )
        return self._select(np.isin(self.segment_ids, wanted))

    def with_matched_segments(self, segment_ids: Sequence[int]) -> "ReportBatch":
        """Batch with segment ids replaced by map-matching output."""
        matched = np.asarray(segment_ids, dtype=np.int64)
        if matched.ndim != 1 or matched.shape[0] != len(self):
            raise ValueError(
                f"{matched.shape[0] if matched.ndim == 1 else 'a bad shape of'}"
                f" matches for {len(self)} reports"
            )
        return ReportBatch.from_columns(
            self.vehicle_ids,
            self.times_s,
            self.xs,
            self.ys,
            self.speeds_kmh,
            matched,
            self.headings_deg,
            assume_sorted=True,
        )

    def subsample_vehicles(
        self, vehicle_ids: Iterable[int]
    ) -> "ReportBatch":
        """Reports of a fleet subset (the paper extracts 500/1k/2k-taxi subsets)."""
        wanted = np.unique(np.fromiter((int(v) for v in vehicle_ids), dtype=np.int64))
        return self._select(np.isin(self.vehicle_ids, wanted))
