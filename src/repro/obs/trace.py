"""Hierarchical tracing spans with a zero-cost disabled fast path.

A *span* is one named, timed region of the pipeline — an Algorithm 1
restart, a GA generation, a map-matching pass, one experiment-battery
job.  Spans nest: the span opened while another is active becomes its
child, so a finished trace is a forest whose roots are the top-level
pipeline phases and whose leaves are the innermost instrumented
regions.  Timings use the monotonic ``time.perf_counter()`` (wall-clock
``time.time()`` is banned by the project's own linter).

Design constraints, in order:

1. **Zero cost when off.**  Observability is disabled by default; every
   public entry point checks one module-level boolean and returns a
   shared no-op object before doing anything else.  The overhead of
   this fast path is not measured: no gate compares observability-off
   against observability-on runs (ROADMAP item 6).
2. **Thread-safe when on.**  Spans are collected into a process-global
   :class:`SpanCollector` behind a lock; the active-span context is a
   ``threading.local`` stack, so concurrent threads nest independently.
3. **Composes with :mod:`repro.utils.parallel`.**  ``parallel_map``
   wraps dispatched jobs in :func:`pool_task` so a span opened inside a
   worker thread is re-parented under the span that was active in the
   *dispatching* thread at dispatch time.

Enabling: ``repro.obs.enable()`` / the ``REPRO_OBS=1`` environment
variable (read once at import).  Instrumentation never changes any
numerical output — spans and metrics are write-only side channels — so
the determinism harness holds with observability on or off.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from types import TracebackType
from typing import Any, Callable, Dict, List, Optional, Tuple, Type, TypeVar, Union

AttrValue = Union[str, int, float, bool, None]

_T = TypeVar("_T")

__all__ = [
    "Span",
    "SpanCollector",
    "collector",
    "current_span_id",
    "disable",
    "enable",
    "enabled",
    "pool_task",
    "reset",
    "span",
    "span_tree",
    "traced",
]


@dataclass(frozen=True)
class Span:
    """One finished traced region.

    ``start_s``/``end_s`` are ``time.perf_counter()`` readings (a
    monotonic clock).
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    start_s: float
    end_s: float
    thread: str
    pid: int
    attrs: Dict[str, AttrValue] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_payload(self) -> Dict[str, Any]:
        """JSON-serializable form (the manifest/JSONL record shape)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "thread": self.thread,
            "pid": self.pid,
            "attrs": dict(self.attrs),
        }

    @staticmethod
    def from_payload(payload: Dict[str, Any]) -> "Span":
        """Inverse of :meth:`to_payload` (manifest loading)."""
        return Span(
            name=str(payload["name"]),
            span_id=int(payload["span_id"]),
            parent_id=(
                None if payload.get("parent_id") is None else int(payload["parent_id"])
            ),
            start_s=float(payload["start_s"]),
            end_s=float(payload["end_s"]),
            thread=str(payload.get("thread", "")),
            pid=int(payload.get("pid", 0)),
            attrs=dict(payload.get("attrs", {})),
        )


class SpanCollector:
    """Thread-safe append-only store of finished spans."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []

    def add(self, span_: Span) -> None:
        with self._lock:
            self._spans.append(span_)

    def drain(self) -> List[Span]:
        """All collected spans, clearing the store."""
        with self._lock:
            out = self._spans
            self._spans = []
        return out

    def snapshot(self) -> List[Span]:
        """All collected spans without clearing."""
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


class _Context(threading.local):
    """Per-thread active-span stack (list of span ids)."""

    def __init__(self) -> None:
        self.stack: List[int] = []


_enabled: bool = False
_collector = SpanCollector()
_context = _Context()
_ids = itertools.count(1)
_id_lock = threading.Lock()


def _next_id() -> int:
    with _id_lock:
        return next(_ids)


def enabled() -> bool:
    """Whether observability is currently on (the global switch)."""
    return _enabled


def enable() -> None:
    """Turn span/metric collection on for this process."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn collection off again (already-collected spans are kept)."""
    global _enabled
    _enabled = False


def reset() -> None:
    """Drop every collected span and the current thread's context.

    Test/benchmark hygiene — a fresh trace for a fresh run.  Does not
    touch the enabled flag.
    """
    _collector.drain()
    _context.stack = []


def collector() -> SpanCollector:
    """The process-global span collector."""
    return _collector


def current_span_id() -> Optional[int]:
    """The innermost active span id on this thread (``None`` at root)."""
    stack = _context.stack
    return stack[-1] if stack else None


class _NoopSpan:
    """Shared do-nothing span returned while observability is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        return None

    def set(self, **attrs: AttrValue) -> "_NoopSpan":
        return self


_NOOP_SPAN = _NoopSpan()


class _LiveSpan:
    """An open span: context manager that records itself on exit."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "_start")

    def __init__(self, name: str, attrs: Dict[str, AttrValue]) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id = _next_id()
        self.parent_id: Optional[int] = None
        self._start = 0.0

    def __enter__(self) -> "_LiveSpan":
        self.parent_id = current_span_id()
        _context.stack.append(self.span_id)
        self._start = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        end = time.perf_counter()
        stack = _context.stack
        if stack and stack[-1] == self.span_id:
            stack.pop()
        elif self.span_id in stack:  # tolerate out-of-order exits
            stack.remove(self.span_id)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        _collector.add(
            Span(
                name=self.name,
                span_id=self.span_id,
                parent_id=self.parent_id,
                start_s=self._start,
                end_s=end,
                thread=threading.current_thread().name,
                pid=os.getpid(),
                attrs=self.attrs,
            )
        )
        return None

    def set(self, **attrs: AttrValue) -> "_LiveSpan":
        """Attach attributes to the open span (chainable)."""
        self.attrs.update(attrs)
        return self


def span(name: str, **attrs: AttrValue) -> Union[_NoopSpan, _LiveSpan]:
    """Open a traced region: ``with obs.span("als.restart", i=3): ...``.

    Returns a shared no-op object when observability is off, so the
    disabled cost is one boolean check plus one call.
    """
    if not _enabled:
        return _NOOP_SPAN
    return _LiveSpan(name, dict(attrs))


def traced(
    name: Optional[str] = None,
) -> Callable[[Callable[..., _T]], Callable[..., _T]]:
    """Decorator form of :func:`span` (span per call, qualname default).

    The disabled fast path forwards straight to the wrapped function —
    one boolean check of overhead per call.
    """

    def decorate(fn: Callable[..., _T]) -> Callable[..., _T]:
        label = name if name is not None else fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> _T:
            if not _enabled:
                return fn(*args, **kwargs)
            with span(label):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


# ----------------------------------------------------------------------
# Worker-pool composition (repro.utils.parallel)
# ----------------------------------------------------------------------
class pool_task:
    """Wrap a pool job so its spans re-parent into the caller's trace.

    Instances are created in the dispatching thread (capturing the span
    that is active *at dispatch time*) and called in worker threads: the
    worker thread's empty context is seeded with the captured parent id,
    so spans opened by the job nest under the dispatch-site span in the
    shared collector.
    """

    def __init__(self, fn: Callable[..., Any], name: str = "parallel.task") -> None:
        self.fn = fn
        self.name = name
        self.parent_id = current_span_id()

    def __call__(self, item: Any) -> Any:
        if not _enabled:
            return self.fn(item)
        saved = _context.stack
        _context.stack = [] if self.parent_id is None else [self.parent_id]
        try:
            with span(self.name):
                return self.fn(item)
        finally:
            _context.stack = saved


def span_tree(
    spans: List[Span],
) -> Tuple[List[Span], Dict[Optional[int], List[Span]]]:
    """(roots, children-by-parent-id) view of a finished trace.

    Spans whose parent never finished (or was traced in another run)
    are treated as roots rather than dropped.
    """
    by_id = {s.span_id: s for s in spans}
    children: Dict[Optional[int], List[Span]] = {}
    roots: List[Span] = []
    for s in spans:
        if s.parent_id is not None and s.parent_id in by_id:
            children.setdefault(s.parent_id, []).append(s)
        else:
            roots.append(s)
    for kids in children.values():
        kids.sort(key=lambda s: s.start_s)
    roots.sort(key=lambda s: s.start_s)
    return roots, children
