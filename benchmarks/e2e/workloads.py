"""Workload definitions, profiles and the input-cache layout.

Importing this module needs only the standard library: the parent
process uses it to name inputs and decide whether they must be
generated, while the ``repro`` imports live in :mod:`pipeline`, which
runs in child processes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
CACHE_DIR = HERE / ".cache"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: The road map is the city, not the load: every run uses the same one.
MAP_SEED = 0

#: Source files whose behaviour shapes the generated inputs.
GENERATOR_PACKAGES = ("mobility", "traffic", "roadnet")


#: The paper's 15-minute time slots.
SLOT_S = 900.0

#: Each taxi draws its reporting interval from this range.  The
#: simulator's default (60, 300) s makes a fleet's total report count
#: vary by about 8% between seeds, which every timing inherits; (60, 120)
#: s stays inside the paper's "30 s to several minutes" and cuts that to
#: a few percent.
REPORT_INTERVAL_S = (60.0, 120.0)


@dataclass(frozen=True)
class InputSpec:
    """What the fleet simulator generates for a workload."""

    network: str  # "downtown" (221 segments) or "metro" (5,812 segments)
    taxis: int
    days: float


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its input and how the pipeline is driven.

    Why each workload exists is recorded in ``BENCHMARK.json`` and the
    README.
    """

    name: str
    kind: str  # "stream", "batch" or "serve"
    inputs: InputSpec
    raw: bool = False  # strip segment tags so every fix is map-matched
    shards: int = 1
    halo: int = 0
    partitioner: str = "grid"
    queries_per_unit: int = 4  # travel-time queries per slot or per estimate
    requests_per_app: int = 150  # metro-serve mix; repeats about twice per run
    warmup_slots: int = 24  # stream workloads' untimed warm-up


_DOWNTOWN_DAY = InputSpec("downtown", taxis=120, days=1.0)
_METRO_DAY = InputSpec("metro", taxis=70, days=1.0)
_METRO_WEEK = InputSpec("metro", taxis=60, days=7.0)

_FULL = (
    Workload(
        "downtown-raw-stream",
        "stream",
        _DOWNTOWN_DAY,
        raw=True,
        partitioner="single",
    ),
    Workload(
        "metro-tripline-stream",
        "stream",
        _METRO_DAY,
        shards=16,
    ),
    Workload(
        "metro-week-batch",
        "batch",
        _METRO_WEEK,
        shards=16,
        halo=1,
        queries_per_unit=96,
    ),
    Workload(
        "metro-serve",
        "serve",
        _METRO_WEEK,
        shards=16,
        halo=1,
    ),
)


def _smoke(workload: Workload) -> Workload:
    """The smoke-test variant: tiny fleets and windows, same code paths."""
    spec = workload.inputs
    days = 1.0 if workload.kind != "stream" else 0.25
    return replace(
        workload,
        inputs=replace(spec, taxis=20, days=days),
        queries_per_unit=min(workload.queries_per_unit, 8),
        requests_per_app=20,
        warmup_slots=4,
    )


PROFILES: Dict[str, Dict[str, Workload]] = {
    "full": {w.name: w for w in _FULL},
    "smoke": {w.name: _smoke(w) for w in _FULL},
}

#: Measured seconds per run when ``--seconds`` is not given.
DEFAULT_SECONDS = {"full": 10.0, "smoke": 0.2}


def source_hash() -> str:
    """Hash of the generator sources, so edited generators invalidate the cache."""
    digest = hashlib.sha256()
    for package in GENERATOR_PACKAGES:
        for path in sorted((ROOT / "src" / "repro" / package).glob("*.py")):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def input_path(spec: InputSpec, seed: int) -> Path:
    """Cache file holding the generated inputs for ``spec`` at ``seed``."""
    key = json.dumps(
        {
            "spec": asdict(spec),
            "seed": seed,
            "map_seed": MAP_SEED,
            "slot_s": SLOT_S,
            "report_interval_s": REPORT_INTERVAL_S,
            "src": source_hash(),
        },
        sort_keys=True,
    )
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    days = f"{spec.days:g}".replace(".", "p")
    name = f"{spec.network}-{spec.taxis}x{days}d-s{seed}-{digest}.npz"
    return CACHE_DIR / "inputs" / name


def load_benchmark_json() -> dict:
    """The benchmark definition at the repository root."""
    return json.loads(BENCHMARK_JSON.read_text())
