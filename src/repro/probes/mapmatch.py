"""Map matching: assigning GPS fixes to road segments.

The monitoring center receives raw (x, y) positions; before aggregation
each fix must be attributed to a road segment.  We use nearest-segment
matching with a uniform grid spatial index so matching stays fast on
metropolitan-scale networks (thousands of segments, millions of fixes).
GPS error in urban canyons can exceed the matching radius, in which case
the fix is discarded (returned as ``-1``) rather than mis-attributed.
Fixes with a non-finite position are discarded the same way, before any
grid arithmetic, and counted in ``mapmatch.rejected_nonfinite``.

**Own-cell exactness.**  :class:`GridIndex` registers every segment in
every cell that its bounding box, padded by ``pad_m`` (the matcher
passes ``max_distance_m``), overlaps.  A segment within the distance
gate of a fix therefore lies in the fix's *own* cell, so scoring only
that cell's candidates finds exactly the in-gate segments an exhaustive
search would.  Among equal scores the **lowest segment id** wins.

Two implementations share these semantics and return identical ids:

* the **scalar** path (:meth:`MapMatcher.match_point`) — one cell
  lookup per report, kept as the readable reference;
* the **vectorized** path (:meth:`MapMatcher.match_arrays`) — every
  (fix, own-cell candidate) pair is laid out flat from the index's CSR
  arrays and scored in chunks of at most about :data:`_CHUNK_PAIRS`
  pairs, with the same arithmetic, in the same order, as the scalar
  loop.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.utils.contracts import hot_path
from repro.roadnet.geometry import Point, heading_deg, point_segment_distance
from repro.roadnet.network import RoadNetwork
from repro.roadnet.segment import RoadSegment
from repro.probes.report import ReportBatch
from repro.utils.validation import check_positive

MATCH_METHODS = ("vectorized", "scalar")

#: Bound on the (fix, candidate) pairs scored at once by the vectorized
#: matcher, keeping its temporaries small however large the batch.
_CHUNK_PAIRS = 1 << 16

#: Extra registration padding (metres) so float rounding in the distance
#: gate can never leave an in-gate segment outside a fix's own cell.
_PAD_SLACK_M = 1e-6


def derive_cell_m(
    network: RoadNetwork, pad_m: float = 60.0, segments_per_cell: float = 8.0
) -> float:
    """Pick a grid cell size from the network's segment density.

    Sizes the cell so an average cell holds about ``segments_per_cell``
    segments: dense downtowns get small cells (short candidate lists),
    sparse metros get large ones (few empty cells).  Clamped to
    ``[max(100, 2 * pad_m), 1600]`` metres so neither a degenerate
    bounding box nor extreme density produces a pathological grid;
    correctness never depends on the value because ``pad_m`` registers
    every segment in all cells within the matching radius.
    """
    min_x, min_y, max_x, max_y = network.bounding_box()
    area = (max_x - min_x) * (max_y - min_y)
    lo = max(100.0, 2.0 * pad_m)
    if area <= 0.0:
        return lo
    cell = math.sqrt(segments_per_cell * area / network.num_segments)
    return float(min(1600.0, max(lo, cell)))


class GridIndex:
    """Uniform-grid spatial index over road segments, stored as CSR.

    Each segment is registered in every cell its bounding box overlaps
    (padded by ``pad_m``).  The cells of the grid's bounding rectangle
    are numbered ``key = (cx - x0) * ny + (cy - y0)``; the segments of
    cell ``key`` are ``indices[indptr[key]:indptr[key + 1]]``, as rows
    into :attr:`segment_ids` in ascending id order.  Key ``nx * ny`` is
    an always-empty cell that stands for "off the grid".

    ``cell_m=None`` (the default) derives the cell size from segment
    density via :func:`derive_cell_m`.  Construction is array-based:
    per-segment cell ranges are computed vectorized and grouped into
    cells with one stable sort, so indexing a metropolitan network does
    no per-segment Python work.
    """

    def __init__(
        self,
        network: RoadNetwork,
        cell_m: Optional[float] = None,
        pad_m: float = 60.0,
    ):
        if pad_m < 0:
            raise ValueError(f"pad_m must be >= 0, got {pad_m}")
        if cell_m is None:
            cell_m = derive_cell_m(network, pad_m)
        check_positive(cell_m, "cell_m")
        self.network = network
        self.cell_m = cell_m
        self.pad_m = pad_m
        self.segment_ids = np.asarray(network.segment_ids, dtype=np.int64)
        self._build_csr()

    def _build_csr(self) -> None:
        """Bulk-assign every segment to the cells its padded bbox overlaps."""
        segments = self.network.segments()
        n = len(segments)
        sx = np.fromiter((s.start_point.x for s in segments), np.float64, n)
        sy = np.fromiter((s.start_point.y for s in segments), np.float64, n)
        ex = np.fromiter((s.end_point.x for s in segments), np.float64, n)
        ey = np.fromiter((s.end_point.y for s in segments), np.float64, n)
        pad, cell = self.pad_m + _PAD_SLACK_M, self.cell_m
        cx0 = np.floor((np.minimum(sx, ex) - pad) / cell).astype(np.int64)
        cx1 = np.floor((np.maximum(sx, ex) + pad) / cell).astype(np.int64)
        cy0 = np.floor((np.minimum(sy, ey) - pad) / cell).astype(np.int64)
        cy1 = np.floor((np.maximum(sy, ey) + pad) / cell).astype(np.int64)
        self._x0, self._y0 = int(cx0.min()), int(cy0.min())
        self._nx = int(cx1.max()) - self._x0 + 1
        self._ny = int(cy1.max()) - self._y0 + 1

        # Expand each segment to one row per overlapped cell.
        nx = cx1 - cx0 + 1
        ny = cy1 - cy0 + 1
        counts = nx * ny
        rows = np.repeat(np.arange(n), counts)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        k = np.arange(int(counts.sum())) - np.repeat(starts, counts)
        key = (cx0[rows] + k // ny[rows] - self._x0) * self._ny + (
            cy0[rows] + k % ny[rows] - self._y0
        )

        # The expansion emits segments in id order, so a stable sort by
        # cell keeps each cell's rows ascending — the lowest-id tie rule
        # of both matchers relies on it.
        self.indices = rows[np.argsort(key, kind="stable")]
        self.indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(key, minlength=self._nx * self._ny + 1)))
        )

    def cell_key(self, x: float, y: float) -> int:
        """CSR cell key of one point (the empty key when off the grid)."""
        empty = self._nx * self._ny
        if not (math.isfinite(x) and math.isfinite(y)):
            return empty
        fx = math.floor(x / self.cell_m) - self._x0
        fy = math.floor(y / self.cell_m) - self._y0
        if 0 <= fx < self._nx and 0 <= fy < self._ny:
            return fx * self._ny + fy
        return empty

    def cell_keys(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """CSR cell keys of many finite points at once (see :meth:`cell_key`)."""
        fx = np.floor(xs / self.cell_m) - self._x0
        fy = np.floor(ys / self.cell_m) - self._y0
        inside = (fx >= 0) & (fx < self._nx) & (fy >= 0) & (fy < self._ny)
        keys = np.full(fx.shape, self._nx * self._ny, dtype=np.int64)
        keys[inside] = (fx[inside] * self._ny + fy[inside]).astype(np.int64)
        return keys

    def candidates(self, point: Point) -> List[int]:
        """Ids of the segments registered in ``point``'s cell, ascending."""
        key = self.cell_key(point.x, point.y)
        rows = self.indices[self.indptr[key] : self.indptr[key + 1]]
        return self.segment_ids[rows].tolist()

    @property
    def num_cells(self) -> int:
        """Number of non-empty cells."""
        return int(np.count_nonzero(np.diff(self.indptr)))


class MapMatcher:
    """Nearest-segment map matcher with a bounded matching radius.

    When a report carries a GPS heading, matching is heading-aware: a
    candidate whose direction of travel disagrees with the course is
    penalized by up to ``heading_penalty_m`` (at a 180-degree
    disagreement), which reliably separates the two directions of a
    two-way street — geometrically identical, directionally opposite.

    Parameters
    ----------
    network:
        Network to match against.
    max_distance_m:
        Fixes farther than this from every segment are rejected (-1).
    cell_m:
        Spatial index cell size; ``None`` (default) derives it from the
        network's segment density (:func:`derive_cell_m`).
    heading_penalty_m:
        Distance-equivalent penalty at full heading disagreement.
    """

    def __init__(
        self,
        network: RoadNetwork,
        max_distance_m: float = 50.0,
        cell_m: Optional[float] = None,
        heading_penalty_m: float = 30.0,
    ):
        check_positive(max_distance_m, "max_distance_m")
        if heading_penalty_m < 0:
            raise ValueError("heading_penalty_m must be >= 0")
        self.network = network
        self.max_distance_m = max_distance_m
        self.heading_penalty_m = heading_penalty_m
        self._gate_sq = max_distance_m * max_distance_m * (1.0 + 1e-9)
        # cell_m=None lets the index derive the cell size from segment
        # density; pad_m=max_distance_m puts every in-gate segment in a
        # fix's own cell regardless of the derived value.
        self.index = GridIndex(network, cell_m=cell_m, pad_m=max_distance_m)
        # Columnar segment geometry in canonical (sorted-id) order, the
        # row order of the index's CSR arrays.
        segments = network.segments()
        self._ax = np.array([s.start_point.x for s in segments], dtype=np.float64)
        self._ay = np.array([s.start_point.y for s in segments], dtype=np.float64)
        self._vx = np.array(
            [s.end_point.x - s.start_point.x for s in segments], dtype=np.float64
        )
        self._vy = np.array(
            [s.end_point.y - s.start_point.y for s in segments], dtype=np.float64
        )
        # A zero-length segment projects every fix onto its start: its
        # zero direction makes the numerator 0, and dividing by 1 keeps t=0.
        len_sq = self._vx**2 + self._vy**2
        self._safe_len_sq = np.where(len_sq > 0.0, len_sq, 1.0)
        self._course = np.array(
            [heading_deg(s.start_point, s.end_point) for s in segments],
            dtype=np.float64,
        )

    def _heading_cost(self, seg: RoadSegment, course_deg: Optional[float]) -> float:
        if course_deg is None or not math.isfinite(course_deg):
            return 0.0
        diff = abs(heading_deg(seg.start_point, seg.end_point) - course_deg) % 360.0
        diff = min(diff, 360.0 - diff)
        return self.heading_penalty_m * diff / 180.0

    def match_point(
        self, point: Point, heading: Optional[float] = None
    ) -> int:
        """Best segment id by distance (+ heading penalty); ``-1`` if none.

        The distance gate (``max_distance_m``) applies to the geometric
        distance only; heading merely re-ranks candidates inside it.
        This is the scalar reference; :meth:`match_arrays` replicates it
        at array speed.
        """
        if not (math.isfinite(point.x) and math.isfinite(point.y)):
            obs_metrics.inc("mapmatch.rejected_nonfinite")
            return -1
        best_id = -1
        best_score = float("inf")
        # Candidates come in ascending id order, so strict < keeps the
        # lowest id among equal scores.
        for sid in self.index.candidates(point):
            seg = self.network.segment(sid)
            d = point_segment_distance(point, seg.start_point, seg.end_point)
            if d > self.max_distance_m:
                continue
            score = d + self._heading_cost(seg, heading)
            if score < best_score:
                best_id, best_score = sid, score
        return best_id

    @hot_path
    def _match_pairs(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        headings: Optional[np.ndarray],
        fix: np.ndarray,
        rows: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Best candidate row per fix over flat (fix, row) pairs.

        ``fix`` is non-decreasing and each fix's rows ascend, as laid out
        from the CSR index.  The point-to-segment projection repeats the
        arithmetic of :func:`repro.roadnet.geometry.point_segment_distance`
        in the same operation order, so distances are bit-identical to
        the scalar path.  Heading penalties are computed only for
        in-gate pairs whose fix has a finite heading.  Returns the
        matched fixes and their winning rows.
        """
        ax, ay = self._ax[rows], self._ay[rows]
        vx, vy = self._vx[rows], self._vy[rows]
        px, py = xs[fix], ys[fix]
        t = np.clip(((px - ax) * vx + (py - ay) * vy) / self._safe_len_sq[rows], 0.0, 1.0)
        dx, dy = px - (ax + t * vx), py - (ay + t * vy)
        # A squared-distance prefilter with a rounding margin spares the
        # costly hypot for the pairs that are clearly out of the gate.
        near = np.flatnonzero(dx * dx + dy * dy <= self._gate_sq)
        dist = np.hypot(dx[near], dy[near])
        inside = dist <= self.max_distance_m
        gate = near[inside]
        fix, rows, score = fix[gate], rows[gate], dist[inside]
        if fix.size == 0:
            return fix, rows
        if headings is not None:
            heads = headings[fix]
            has = np.flatnonzero(np.isfinite(heads))
            diff = np.abs(self._course[rows[has]] - heads[has]) % 360.0
            diff = np.minimum(diff, 360.0 - diff)
            score[has] = score[has] + self.heading_penalty_m * diff / 180.0
        starts = np.flatnonzero(np.r_[True, fix[1:] != fix[:-1]])
        best = np.minimum.reduceat(score, starts)
        ties = np.flatnonzero(score == np.repeat(best, np.diff(np.r_[starts, fix.size])))
        # The first minimum of each fix is its lowest-id winner.
        first = ties[np.r_[True, fix[ties][1:] != fix[ties][:-1]]]
        return fix[first], rows[first]

    @hot_path
    def match_arrays(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        headings_deg: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Vectorized :meth:`match_point` over report position arrays.

        Each fix is paired with its own cell's candidates straight from
        the CSR index; the pairs are scored in chunks of about
        :data:`_CHUNK_PAIRS`.  Returns the matched segment id per report
        (``-1`` where rejected), identical to the scalar loop.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("xs and ys must be 1-D arrays of equal length")
        if headings_deg is not None:
            headings_deg = np.asarray(headings_deg, dtype=np.float64)
            if headings_deg.shape != xs.shape:
                raise ValueError("headings_deg must match xs/ys length")
        out = np.full(xs.shape[0], -1, dtype=np.int64)
        if xs.size == 0:
            return out

        index = self.index
        with obs_trace.span("ingest.match", reports=int(xs.size)):
            live = np.flatnonzero(np.isfinite(xs) & np.isfinite(ys))
            if live.size < xs.size:
                obs_metrics.inc("mapmatch.rejected_nonfinite", int(xs.size - live.size))
                xs, ys = xs[live], ys[live]
                if headings_deg is not None:
                    headings_deg = headings_deg[live]
            keys = index.cell_keys(xs, ys)
            first = index.indptr[keys]
            counts = index.indptr[keys + 1] - first
            ends = np.cumsum(counts)
            pairs = int(ends[-1]) if ends.size else 0
            # Pair p of fix f sits at CSR position p + offset[f].
            offset = first - (ends - counts)
            cuts = np.searchsorted(
                ends, np.arange(_CHUNK_PAIRS, pairs, _CHUNK_PAIRS), side="right"
            )
            bounds = np.unique(np.r_[0, cuts, xs.size]).tolist()
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                p0, p1 = (int(ends[lo - 1]) if lo else 0), int(ends[hi - 1])
                if p1 == p0:
                    continue
                fix = np.repeat(np.arange(lo, hi), counts[lo:hi])
                pos = np.arange(p0, p1) + offset[fix]
                won, rows = self._match_pairs(xs, ys, headings_deg, fix, index.indices[pos])
                out[live[won]] = index.segment_ids[rows]
        if obs_trace.enabled():
            obs_metrics.inc("mapmatch.candidates_examined", pairs)
            obs_metrics.inc("mapmatch.reports", int(out.size))
            obs_metrics.inc("mapmatch.matched", int(np.count_nonzero(out >= 0)))
        return out

    def match_batch(self, batch: ReportBatch, method: str = "vectorized") -> ReportBatch:
        """Match every report's (x, y) [+ heading]; unmatched keep ``-1``."""
        if method not in MATCH_METHODS:
            raise ValueError(
                f"method must be one of {MATCH_METHODS}, got {method!r}"
            )
        if method == "scalar":
            # Reference path, one cell lookup per report.
            # repro-lint: disable-next-line=ingestion-loop
            matched: List[int] = [
                self.match_point(Point(r.x, r.y), heading=r.heading_deg)
                for r in batch
            ]
            return batch.with_matched_segments(matched)
        ids = self.match_arrays(batch.xs, batch.ys, batch.headings_deg)
        return batch.with_matched_segments(ids)

    def match_rate(self, batch: ReportBatch) -> float:
        """Fraction of reports that matched to a segment."""
        if len(batch) == 0:
            return 0.0
        ids = self.match_arrays(batch.xs, batch.ys, batch.headings_deg)
        return float(np.mean(ids >= 0))
