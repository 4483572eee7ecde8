"""Input validation helpers shared across the library.

These raise early with actionable messages instead of letting bad shapes
propagate into linear-algebra routines where the failure mode is a
cryptic broadcast error three stack frames later.

The implementations live in :mod:`repro.utils.contracts` (which also
provides the :func:`~repro.utils.contracts.shapes` decorator layer);
this module remains the stable import path the rest of the tree uses.
"""

from __future__ import annotations

from repro.utils.contracts import (
    check_finite,
    check_finite_time,
    check_fraction,
    check_matrix_pair,
    check_positive,
    check_probability,
)

__all__ = [
    "check_finite",
    "check_finite_time",
    "check_fraction",
    "check_matrix_pair",
    "check_positive",
    "check_probability",
]
