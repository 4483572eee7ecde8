"""Benchmark-side spans and their per-layer rollup.

Spans are recorded around the calls the benchmark makes into each layer;
nothing inside ``src/`` is instrumented by them.  A span name's first
dotted component names the layer (``mapmatch.match`` belongs to
``mapmatch``).  ``slot``, ``pass`` and ``request`` spans are the
operations whose summed duration is the measured pipeline time; layer
spans directly under them form its blocking path.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

import numpy as np

LAYERS = ("roadnet", "mapmatch", "aggregate", "stream", "complete", "apps")
OPERATIONS = ("slot", "pass", "request")


class SpanRecord(NamedTuple):
    span_id: int
    parent_id: Optional[int]
    name: str
    start_s: float
    end_s: float
    attrs: Dict[str, int]

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class _Span:
    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id", "start")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, int]) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        tracer._last_id += 1
        self.span_id = tracer._last_id
        self.parent_id = tracer._stack[-1] if tracer._stack else None
        tracer._stack.append(self.span_id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        end = time.perf_counter()
        self.tracer._stack.pop()
        self.tracer.spans.append(
            SpanRecord(self.span_id, self.parent_id, self.name, self.start, end, self.attrs)
        )


class Tracer:
    """Records spans in memory; :meth:`write_jsonl` dumps them at exit."""

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        self._stack: List[int] = []
        self._last_id = 0

    def span(self, name: str, **attrs: int) -> _Span:
        return _Span(self, name, attrs)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for s in self.spans:
                handle.write(json.dumps(s._asdict(), separators=(",", ":")) + "\n")


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: every span is one shared no-op context manager."""

    def span(self, name: str, **attrs: int) -> _NullSpan:
        return _NULL_SPAN


def layer_of(name: str) -> Optional[str]:
    layer = name.split(".", 1)[0]
    return layer if layer in LAYERS else None


class Rollup(NamedTuple):
    """Where measured pipeline time went, by span name."""

    pipeline_s: float
    busy_s: Dict[str, float]  # span name -> summed duration under operations
    durations_s: Dict[str, List[float]]  # span name -> each call under operations
    setup_s: Dict[str, float]  # span name -> median duration inside set-up

    def layer_busy(self, prefix: str) -> float:
        return sum(v for k, v in self.busy_s.items() if k == prefix or k.startswith(prefix + "."))

    def share(self, prefix: str) -> float:
        return self.layer_busy(prefix) / self.pipeline_s if self.pipeline_s > 0 else 0.0

    @property
    def coverage(self) -> float:
        """Share of pipeline time inside some layer's span (the rest is glue)."""
        covered = sum(v for k, v in self.busy_s.items() if layer_of(k))
        return covered / self.pipeline_s if self.pipeline_s > 0 else 0.0

    def p95_ms(self, name: str) -> float:
        calls = self.durations_s.get(name)
        return float(np.percentile(calls, 95)) * 1e3 if calls else 0.0


def rollup(spans: List[SpanRecord]) -> Rollup:
    """Busy time per span name on the blocking path, plus set-up medians.

    Layer spans nest directly under an operation span, so a layer's busy
    time equals its self time; an operation's self time is the glue
    between layer calls (``pipeline_s`` minus covered time).
    """
    by_id = {s.span_id: s for s in spans}
    pipeline = 0.0
    busy: Dict[str, float] = defaultdict(float)
    durations: Dict[str, List[float]] = defaultdict(list)
    setup: Dict[str, List[float]] = defaultdict(list)
    for s in spans:
        if s.name in OPERATIONS:
            pipeline += s.duration_s
            continue
        parent = by_id.get(s.parent_id)
        if parent is None:
            continue
        if parent.name in OPERATIONS:
            busy[s.name] += s.duration_s
            durations[s.name].append(s.duration_s)
        elif parent.name == "setup":
            setup[s.name].append(s.duration_s)
    return Rollup(
        pipeline_s=pipeline,
        busy_s=dict(busy),
        durations_s=dict(durations),
        setup_s={k: statistics.median(v) for k, v in setup.items()},
    )
