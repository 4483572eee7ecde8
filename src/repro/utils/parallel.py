"""Deterministic fan-out of independent numerical jobs.

ALS restarts, GA fitness evaluations, per-shard solves and experiment
jobs are embarrassingly parallel: each job is a pure function of
arguments prepared *up front* (including any random state, see
:func:`repro.utils.rng.spawn_rngs`).  This module provides the one
primitive those call sites need — an order-preserving ``map`` over a
thread pool — so the parallel path is *bit-identical* to the serial
path: the caller fixes every input before dispatch, and the results
come back in submission order regardless of completion order.

The pool is a :class:`~concurrent.futures.ThreadPoolExecutor`: the hot
work is NumPy/LAPACK, which releases the GIL, and threads avoid
pickling matrices.  ``max_workers`` of ``None``, ``0`` or ``1``
short-circuits to a plain loop — so plumbing ``max_workers=None``
through a constructor costs nothing until a caller opts in.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

__all__ = ["available_workers", "parallel_map", "resolve_workers"]


def available_workers() -> int:
    """Usable CPU count (>= 1) for sizing worker pools."""
    return max(1, os.cpu_count() or 1)


def resolve_workers(max_workers: Optional[int], num_items: int) -> int:
    """Effective pool size for ``num_items`` jobs.

    ``None``/``0``/``1`` mean serial; otherwise the pool is capped by the
    number of jobs (extra workers would only idle).
    """
    if max_workers is not None and max_workers < 0:
        raise ValueError(f"max_workers must be >= 0 or None, got {max_workers}")
    if max_workers is None or max_workers <= 1:
        return 1
    return max(1, min(max_workers, num_items))


def parallel_map(
    fn: Callable[[ItemT], ResultT],
    items: Sequence[ItemT],
    max_workers: Optional[int] = None,
    span_name: str = "parallel.task",
) -> List[ResultT]:
    """``[fn(item) for item in items]``, optionally on a thread pool.

    Results are returned in the order of ``items`` (never completion
    order), so a deterministic ``fn`` makes the output independent of
    ``max_workers``.  The first exception raised by any job propagates
    to the caller, as in the serial loop.

    Parameters
    ----------
    fn:
        The job.
    items:
        Job inputs, fully prepared up front.
    max_workers:
        Pool size; ``None``/``0``/``1`` run serially.
    span_name:
        Span name for per-job tracing when observability is enabled
        (:mod:`repro.obs`); ignored — at zero cost — while it is off.
    """
    jobs = list(items)
    workers = resolve_workers(max_workers, len(jobs))
    if workers <= 1:
        if _obs_trace.enabled():
            # Serial path still records one span per job so traces are
            # comparable across worker counts.
            return list(map(_obs_trace.pool_task(fn, span_name), jobs))
        return [fn(item) for item in jobs]
    if _obs_trace.enabled():
        _obs_metrics.set_gauge("pool.workers", workers)
        _obs_metrics.inc("pool.jobs", len(jobs))
        # Wrapping captures the caller's active span at dispatch time so
        # worker spans re-parent into the caller's trace.
        fn = _obs_trace.pool_task(fn, span_name)
    with ThreadPoolExecutor(max_workers=workers) as executor:
        # Executor.map preserves submission order and re-raises the
        # first failing job's exception on iteration.
        return list(executor.map(fn, jobs))
