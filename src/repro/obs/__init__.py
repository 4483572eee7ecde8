"""Observability for the estimation pipeline: spans, metrics, manifests.

Disabled by default and zero-cost while off — every public entry point
checks one module-level flag and returns a shared no-op object, so the
instrumented hot paths (`repro.core.completion`, `repro.core.tuning`,
probe ingestion, the experiment runner) pay one boolean test per call
site.  Enable per-process with :func:`enable` or by exporting
``REPRO_OBS=1`` before import.

Layer map:

* :mod:`repro.obs.trace` — hierarchical wall-time spans
  (context-manager + decorator), thread-safe collection, and
  re-parenting of worker-thread spans produced under
  :func:`repro.utils.parallel.parallel_map` into the driver trace.
* :mod:`repro.obs.metrics` — counters/gauges/histograms with JSONL and
  Prometheus-text exporters.
* :mod:`repro.obs.manifest` — canonical per-invocation JSON artifacts
  (config hash, seeds, git SHA, versions, jobs, spans, metrics).
* :mod:`repro.obs.schema` — validation against the committed
  ``manifest_schema.json``.
* :mod:`repro.obs.summarize` — human-readable rollups for
  ``repro trace summarize``.
"""

from __future__ import annotations

import os

# trace must import before metrics: metrics reads the enabled flag from
# trace at call time, and manifest snapshots both.
from repro.obs import trace as trace
from repro.obs import metrics as metrics
from repro.obs import manifest as manifest
from repro.obs import schema as schema
from repro.obs import summarize as summarize
from repro.obs.manifest import (
    build_manifest,
    config_hash,
    default_manifest_name,
    load_manifest,
    write_manifest,
)
from repro.obs.metrics import inc, observe, registry, set_gauge
from repro.obs.schema import validate_manifest
from repro.obs.summarize import render_spans_jsonl, summarize_manifest
from repro.obs.trace import (
    Span,
    collector,
    current_span_id,
    disable,
    enable,
    enabled,
    pool_task,
    span,
    span_tree,
    traced,
)

__all__ = [
    "Span",
    "build_manifest",
    "collector",
    "config_hash",
    "current_span_id",
    "default_manifest_name",
    "disable",
    "enable",
    "enabled",
    "inc",
    "load_manifest",
    "manifest",
    "metrics",
    "observe",
    "pool_task",
    "registry",
    "render_spans_jsonl",
    "reset",
    "schema",
    "set_gauge",
    "span",
    "span_tree",
    "summarize",
    "summarize_manifest",
    "trace",
    "traced",
    "validate_manifest",
    "write_manifest",
]


def reset() -> None:
    """Drop every collected span and metric (keeps the enabled state)."""
    trace.reset()
    metrics.reset()


if os.environ.get("REPRO_OBS", "").strip().lower() in ("1", "true", "yes", "on"):
    enable()
