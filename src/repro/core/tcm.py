"""Traffic condition matrices (TCMs).

The paper arranges the traffic conditions of ``n`` road segments over
``m`` time slots into a matrix ``X = (x_{t,r})_{m x n}`` (Eq. 3): a row is
a time slot, a column is a road segment, and ``x_{t,r}`` is the mean flow
speed on segment ``r`` during slot ``t`` (Definition 1).  Observations
from probe vehicles give a *measurement matrix* ``M = X .x B`` where the
indicator ``B`` marks (slot, segment) cells with at least one probe report
(Eq. 4).  The *integrity* of ``M`` is the fraction of observed cells
(Definition 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.contracts import shapes
from repro.utils.validation import check_finite_time, check_matrix_pair, check_positive


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time discretization: ``num_slots`` slots of fixed length.

    Attributes
    ----------
    start_s:
        Epoch-style start time in seconds (the simulation clock origin).
    slot_s:
        Slot length in seconds; the paper's "time granularity" (900 s,
        1800 s, or 3600 s in the experiments).
    num_slots:
        Number of slots ``m``.
    """

    start_s: float
    slot_s: float
    num_slots: int

    def __post_init__(self) -> None:
        # A NaN or infinite clock would give every slot a NaN or
        # infinite start and centre.
        check_finite_time(self.start_s, "start_s")
        check_finite_time(self.slot_s, "slot_s")
        check_positive(self.slot_s, "slot_s")
        if self.num_slots < 1:
            raise ValueError(f"num_slots must be >= 1, got {self.num_slots}")

    @property
    def end_s(self) -> float:
        """Exclusive end time of the last slot."""
        return self.start_s + self.slot_s * self.num_slots

    @property
    def duration_s(self) -> float:
        return self.slot_s * self.num_slots

    def slot_of(self, time_s: float) -> Optional[int]:
        """Slot index containing ``time_s``; ``None`` outside the grid.

        NaN is outside every grid (both comparisons fail for it).
        """
        if not self.start_s <= time_s < self.end_s:
            return None
        return int((time_s - self.start_s) // self.slot_s)

    def slot_start(self, slot: int) -> float:
        """Start time of ``slot`` in seconds."""
        self._check_slot(slot)
        return self.start_s + slot * self.slot_s

    def slot_centers(self) -> np.ndarray:
        """Array of slot mid-point times in seconds."""
        return self.start_s + (np.arange(self.num_slots) + 0.5) * self.slot_s

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.num_slots:
            raise IndexError(f"slot {slot} outside [0, {self.num_slots})")

    @classmethod
    def over_days(
        cls, days: float, slot_s: float, start_s: float = 0.0
    ) -> "TimeGrid":
        """Grid covering ``days`` days at ``slot_s`` granularity."""
        check_positive(days, "days")
        num_slots = int(round(days * 86_400.0 / slot_s))
        return cls(start_s=start_s, slot_s=slot_s, num_slots=num_slots)


class TrafficConditionMatrix:
    """A (possibly partially observed) traffic condition matrix.

    Wraps the value matrix, the boolean observation mask, the time grid,
    and the segment-id column labels.  A fully observed ground-truth TCM
    simply has an all-true mask.

    Parameters
    ----------
    values:
        ``(m, n)`` matrix of mean flow speeds in km/h.  Cells where the
        mask is false are ignored (by convention stored as 0).
    mask:
        ``(m, n)`` boolean indicator matrix ``B``; true where observed.
        ``None`` means fully observed.
    grid:
        The time discretization of the rows.
    segment_ids:
        Column labels; defaults to ``0..n-1``.

    :meth:`from_cells` builds a TCM from its observed cells instead, and
    :attr:`observed_cells` reads them back.
    """

    # (flat indices, values) of the observed cells, read-only, or None
    # until first asked for.  A class default, so a TCM unpickled from
    # a state without it (see __getstate__) computes them on demand.
    _cells: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @shapes("m n", "m n:bool")
    def __init__(
        self,
        values: np.ndarray,
        mask: Optional[np.ndarray] = None,
        grid: Optional[TimeGrid] = None,
        segment_ids: Optional[Sequence[int]] = None,
    ) -> None:
        if mask is None:
            # Fully observed: one owned copy and one finiteness pass, no
            # masked gather or masked copy.
            self._adopt_full(np.array(values, dtype=np.float64), grid, segment_ids)
            return
        values, mask = check_matrix_pair(np.asarray(values, dtype=np.float64), mask)
        # Zero out unobserved cells so values match the paper's M = X .x B.
        self._adopt(np.where(mask, values, 0.0), mask, grid, segment_ids)

    @classmethod
    def _full_of(
        cls,
        values: np.ndarray,
        grid: Optional[TimeGrid] = None,
        segment_ids: Optional[Sequence[int]] = None,
    ) -> "TrafficConditionMatrix":
        """A fully observed TCM that keeps ``values`` itself, not a copy.

        For a fresh float64 buffer that nothing else writes to, such as
        a stitched estimate.  It is checked like the constructor's copy
        and made read-only, so the caller's reference and the TCM share
        one array that neither can change.
        """
        tcm = cls.__new__(cls)
        tcm._adopt_full(values, grid, segment_ids)
        values.flags.writeable = False
        return tcm

    @classmethod
    def from_cells(
        cls,
        shape: Tuple[int, int],
        flat: np.ndarray,
        values: np.ndarray,
        grid: Optional[TimeGrid] = None,
        segment_ids: Optional[Sequence[int]] = None,
    ) -> "TrafficConditionMatrix":
        """A TCM of ``shape`` from its observed cells.

        ``flat`` holds the row-major flat indices of the observed cells,
        strictly ascending, and ``values`` their (finite) measurements;
        every other cell is unobserved.  The TCM keeps copies of both as
        its :attr:`observed_cells` and scatters them into its matrices,
        so building one costs O(observed) beyond zeroing the two arrays.
        """
        if len(shape) != 2:
            raise ValueError(f"values must be 2-D, got shape {tuple(shape)}")
        m, n = (int(size) for size in shape)
        flat = np.array(flat, dtype=np.intp)
        values = np.array(values, dtype=np.float64)
        if flat.ndim != 1 or values.shape != flat.shape:
            raise ValueError(
                f"{flat.shape} cell indices for {values.shape} cell values"
            )
        if flat.size and (
            flat[0] < 0 or flat[-1] >= m * n or np.any(flat[1:] <= flat[:-1])
        ):
            raise ValueError(
                f"cell indices must ascend strictly within [0, {m * n})"
            )
        if not np.isfinite(values).all():
            raise ValueError("observed entries must be finite")
        dense = np.zeros(m * n)
        dense[flat] = values
        mask = np.zeros(m * n, dtype=bool)
        mask[flat] = True
        tcm = cls.__new__(cls)
        tcm._adopt(dense.reshape(m, n), mask.reshape(m, n), grid, segment_ids)
        flat.flags.writeable = False
        values.flags.writeable = False
        tcm._cells = (flat, values)
        return tcm

    def _adopt_full(
        self,
        values: np.ndarray,
        grid: Optional[TimeGrid],
        segment_ids: Optional[Sequence[int]],
    ) -> None:
        """Take ownership of a float64 ``values``, every cell observed."""
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("observed entries must be finite")
        self._adopt(values, np.ones(values.shape, dtype=bool), grid, segment_ids)

    def _adopt(
        self,
        values: np.ndarray,
        mask: np.ndarray,
        grid: Optional[TimeGrid],
        segment_ids: Optional[Sequence[int]],
    ) -> None:
        """Take ownership of checked ``(values, mask)`` and their labels."""
        m, n = values.shape
        if grid is None:
            grid = TimeGrid(start_s=0.0, slot_s=900.0, num_slots=m)
        if grid.num_slots != m:
            raise ValueError(
                f"grid has {grid.num_slots} slots but matrix has {m} rows"
            )
        if segment_ids is None:
            segment_ids = list(range(n))
        segment_ids = [int(s) for s in segment_ids]
        if len(segment_ids) != n:
            raise ValueError(
                f"{len(segment_ids)} segment ids for {n} matrix columns"
            )
        if len(set(segment_ids)) != n:
            raise ValueError("segment_ids must be unique")
        self._values = values
        self._mask = mask
        self.grid = grid
        self.segment_ids = segment_ids
        self._column_of = {sid: j for j, sid in enumerate(segment_ids)}

    def __getstate__(self) -> dict:
        # The cell cache is left out: it is derived, and arrays come back
        # from a pickle writeable, which the read-only contract forbids.
        state = self.__dict__.copy()
        state.pop("_cells", None)
        return state

    # ------------------------------------------------------------------
    # Shape and access
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self._values.shape

    @property
    def num_slots(self) -> int:
        return self._values.shape[0]

    @property
    def num_segments(self) -> int:
        return self._values.shape[1]

    @property
    def values(self) -> np.ndarray:
        """The measurement matrix ``M`` (unobserved cells are zero)."""
        return self._values.copy()

    @property
    def values_view(self) -> np.ndarray:
        """Read-only view of :attr:`values`, for readers that must not copy."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    @property
    def mask(self) -> np.ndarray:
        """The boolean indicator matrix ``B``."""
        return self._mask.copy()

    @property
    def mask_view(self) -> np.ndarray:
        """Read-only view of :attr:`mask`, for readers that must not copy."""
        view = self._mask.view()
        view.flags.writeable = False
        return view

    @property
    def observed_cells(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(flat, values)`` of the observed cells, both read-only.

        ``flat`` holds the cells' row-major flat indices (ascending) and
        ``values`` their measurements, so ``values`` equals
        ``self.values[self.mask]`` in the same order.  A TCM built by
        :meth:`from_cells` answers from what it was given; any other
        computes them on first request and keeps them.
        """
        cells = self._cells
        if cells is None:
            # Built into locals and published with one assignment, so a
            # concurrent reader sees either nothing or the whole pair.
            flat = np.flatnonzero(self._mask)
            values = self._values.reshape(-1)[flat]
            flat.flags.writeable = False
            values.flags.writeable = False
            cells = (flat, values)
            self._cells = cells
        return cells

    def column_of(self, segment_id: int) -> int:
        """Column index of a segment id."""
        try:
            return self._column_of[segment_id]
        except KeyError:
            raise KeyError(f"segment {segment_id} not in this TCM") from None

    def series(self, segment_id: int) -> np.ndarray:
        """One segment's time series (unobserved cells as NaN)."""
        j = self.column_of(segment_id)
        out = self._values[:, j].astype(float)
        out[~self._mask[:, j]] = np.nan
        return out

    # ------------------------------------------------------------------
    # Integrity (Definition 4)
    # ------------------------------------------------------------------
    @property
    def integrity(self) -> float:
        """Fraction of observed cells: ``sum(B) / size(B)``."""
        return float(self._mask.mean())

    def road_integrity(self) -> np.ndarray:
        """Per-segment integrity (fraction of observed slots per column)."""
        return self._mask.mean(axis=0)

    def slot_integrity(self) -> np.ndarray:
        """Per-slot integrity (fraction of observed segments per row)."""
        return self._mask.mean(axis=1)

    @property
    def is_complete(self) -> bool:
        return bool(self._mask.all())

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_mask(self, mask: np.ndarray) -> "TrafficConditionMatrix":
        """Same values/labels restricted to a new observation mask.

        The new mask must be a subset of currently observed cells when
        this TCM is itself partial; starting from a complete TCM any mask
        is valid.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.shape:
            raise ValueError(f"mask shape {mask.shape} != TCM shape {self.shape}")
        if not self.is_complete and np.any(mask & ~self._mask):
            raise ValueError("new mask observes cells missing from this TCM")
        return TrafficConditionMatrix(
            self._values, mask, grid=self.grid, segment_ids=self.segment_ids
        )

    def select_segments(self, segment_ids: Sequence[int]) -> "TrafficConditionMatrix":
        """Sub-TCM over a subset of segments (Section 4.5 set studies)."""
        cols = [self.column_of(sid) for sid in segment_ids]
        return TrafficConditionMatrix(
            self._values[:, cols],
            self._mask[:, cols],
            grid=self.grid,
            segment_ids=list(segment_ids),
        )

    def select_slots(self, start: int, stop: int) -> "TrafficConditionMatrix":
        """Sub-TCM over a contiguous slot range ``[start, stop)``."""
        if not 0 <= start < stop <= self.num_slots:
            raise ValueError(
                f"invalid slot range [{start}, {stop}) for {self.num_slots} slots"
            )
        sub_grid = TimeGrid(
            start_s=self.grid.slot_start(start),
            slot_s=self.grid.slot_s,
            num_slots=stop - start,
        )
        return TrafficConditionMatrix(
            self._values[start:stop],
            self._mask[start:stop],
            grid=sub_grid,
            segment_ids=self.segment_ids,
        )

    def observed_values(self) -> np.ndarray:
        """1-D array of the observed entries."""
        return self._values[self._mask]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TrafficConditionMatrix(shape={self.shape}, "
            f"integrity={self.integrity:.3f}, slot_s={self.grid.slot_s:.0f})"
        )
