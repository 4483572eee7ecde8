"""Runtime array contracts for the numerical core.

The :func:`shapes` decorator declares, next to a function's signature,
what the linear algebra inside assumes: array ranks, symbolic dimension
bindings shared across arguments, dtype families, and finiteness.  The
checks run only when the ``REPRO_CHECK`` environment variable is truthy
(``1``/``true``/``yes``/``on``) or :func:`set_enabled` forces them on,
so production call paths pay a single dict lookup and branch.

Spec grammar (one spec string per array argument, ``None`` to skip)::

    @shapes("m n", "m n:bool")
    def complete(values, mask): ...

* tokens are symbolic dims (``m``), exact sizes (``3``), or ``*`` (any);
  symbolic dims must agree everywhere they appear in one call.
* an optional ``:float`` / ``:bool`` / ``:int`` suffix constrains the
  dtype *family* (real numeric, boolean-like indicator, integral).
* a spec may also be a ``type``, requiring ``isinstance`` instead of an
  array check (used for TCM-typed entry points).
* ``finite=("values",)`` additionally rejects NaN/inf in named args.

Arguments that are ``None`` or not array-like (e.g. a
``TrafficConditionMatrix`` passed where a raw matrix is also accepted)
are skipped — the contract constrains arrays when arrays are given.

This module also hosts the scalar/matrix validation helpers that
predate it (``check_positive``, ``check_matrix_pair``, ...), which
:mod:`repro.utils.validation` re-exports for backward compatibility.
Those helpers raise unconditionally; only the decorator is gated.
"""

from __future__ import annotations

import functools
import inspect
import os
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
    cast,
)

import numpy as np

from repro.utils.shapespec import DTYPE_FAMILIES, ShapeSpec, parse_shape_spec

F = TypeVar("F", bound=Callable[..., Any])

_TRUTHY = frozenset(("1", "true", "yes", "on"))
#: Backward-compatible alias; the grammar lives in :mod:`repro.utils.shapespec`
#: so the static verifier parses the exact same spec language.
_DTYPE_FAMILIES: Dict[str, str] = DTYPE_FAMILIES

_forced: Optional[bool] = None


class ContractError(ValueError):
    """An array argument violated its declared contract."""


def contracts_enabled() -> bool:
    """Whether contract checks run (``REPRO_CHECK`` or :func:`set_enabled`)."""
    if _forced is not None:
        return _forced
    return os.environ.get("REPRO_CHECK", "").strip().lower() in _TRUTHY


def set_enabled(flag: Optional[bool]) -> None:
    """Force contracts on/off programmatically; ``None`` follows the env."""
    global _forced
    _forced = flag


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------
class _ArraySpec:
    """One parsed ``"m n:bool"`` style spec (grammar: :mod:`~repro.utils.shapespec`)."""

    __slots__ = ("dims", "kinds", "raw", "spec")

    def __init__(self, raw: str):
        self.raw = raw
        self.spec: ShapeSpec = parse_shape_spec(raw)
        self.dims: List[Union[str, int]] = list(self.spec.dims)
        self.kinds = self.spec.kinds

    def check(
        self, name: str, value: np.ndarray, bindings: Dict[str, int], where: str
    ) -> None:
        if value.ndim != len(self.dims):
            raise ContractError(
                f"{where}: {name} must be {len(self.dims)}-D "
                f"(spec {self.raw!r}), got shape {value.shape}"
            )
        for axis, (dim, size) in enumerate(zip(self.dims, value.shape)):
            if dim == "*":
                continue
            if isinstance(dim, int):
                if size != dim:
                    raise ContractError(
                        f"{where}: {name} axis {axis} must have size {dim}, "
                        f"got {size} (shape {value.shape})"
                    )
            else:
                bound = bindings.setdefault(dim, size)
                if bound != size:
                    raise ContractError(
                        f"{where}: dim {dim!r} is {bound} elsewhere but "
                        f"{name} has {size} on axis {axis} "
                        f"(shape {value.shape})"
                    )
        if self.kinds and value.dtype.kind not in self.kinds:
            raise ContractError(
                f"{where}: {name} dtype {value.dtype} is not in the "
                f"{self.raw.partition(':')[2]!r} family"
            )


SpecLike = Union[None, str, type]


def _as_array(value: Any) -> Optional[np.ndarray]:
    """Best-effort array view of ``value``; ``None`` when not array-like."""
    if value is None:
        return None
    if isinstance(value, np.ndarray):
        return value
    if isinstance(value, (list, tuple)):
        try:
            arr = np.asarray(value)
        except (ValueError, TypeError):
            return None
        return arr if arr.dtype.kind in "biufc" else None
    return None


def shapes(
    *arg_specs: SpecLike,
    finite: Sequence[str] = (),
    **named_specs: SpecLike,
) -> Callable[[F], F]:
    """Declare shape/dtype/finiteness contracts for a callable.

    Positional specs align with the function's parameters in declaration
    order (``self``/``cls`` skipped); keyword specs address parameters
    by name.  See the module docstring for the grammar.
    """
    parsed: Dict[str, Union[_ArraySpec, type, None]] = {}

    def _parse(spec: SpecLike) -> Union[_ArraySpec, type, None]:
        if spec is None:
            return None
        if isinstance(spec, type):
            return spec
        return _ArraySpec(spec)

    def decorator(func: F) -> F:
        signature = inspect.signature(func)
        param_names = [
            p.name
            for p in signature.parameters.values()
            if p.kind
            in (
                inspect.Parameter.POSITIONAL_ONLY,
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.KEYWORD_ONLY,
            )
        ]
        positional = [n for n in param_names if n not in ("self", "cls")]
        if len(arg_specs) > len(positional):
            raise ValueError(
                f"{func.__qualname__}: {len(arg_specs)} specs for "
                f"{len(positional)} parameters"
            )
        for name, spec in zip(positional, arg_specs):
            parsed[name] = _parse(spec)
        for name, spec in named_specs.items():
            if name not in param_names:
                raise ValueError(
                    f"{func.__qualname__}: no parameter named {name!r}"
                )
            parsed[name] = _parse(spec)
        for name in finite:
            if name not in param_names:
                raise ValueError(
                    f"{func.__qualname__}: finite names unknown parameter {name!r}"
                )

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not contracts_enabled():
                return func(*args, **kwargs)
            where = func.__qualname__
            bound = signature.bind(*args, **kwargs)
            bindings: Dict[str, int] = {}
            for name, spec in parsed.items():
                if spec is None or name not in bound.arguments:
                    continue
                value = bound.arguments[name]
                if isinstance(spec, type):
                    if value is not None and not isinstance(value, spec):
                        raise ContractError(
                            f"{where}: {name} must be {spec.__name__}, "
                            f"got {type(value).__name__}"
                        )
                    continue
                arr = _as_array(value)
                if arr is not None:
                    spec.check(name, arr, bindings, where)
            for name in finite:
                if name not in bound.arguments:
                    continue
                arr = _as_array(bound.arguments[name])
                if arr is not None and arr.dtype.kind in "fc":
                    if not np.all(np.isfinite(arr)):
                        bad = int(arr.size - np.count_nonzero(np.isfinite(arr)))
                        raise ContractError(
                            f"{where}: {name} contains {bad} non-finite element(s)"
                        )
            return func(*args, **kwargs)

        return cast(F, wrapper)

    return decorator


# ----------------------------------------------------------------------
# Effect contracts (statically verified by repro.analysis.effects)
# ----------------------------------------------------------------------
#: The effect taxonomy of the whole-program analysis.  Every effect a
#: function (or anything it transitively calls) can carry is one of
#: these; ``@effects`` contracts are declared against the same names.
EFFECT_NAMES: FrozenSet[str] = frozenset(
    {
        "mutates-global",
        "mutates-nonlocal",
        "rng",
        "wall-clock",
        "io",
        "env",
        "unordered-iteration",
    }
)


def effects(*declared: str, allow: Iterable[str] = ()) -> Callable[[F], F]:
    """Declare the side effects a callable is permitted to have.

    The contract is *statically* verified by ``repro lint``: the
    whole-program effect-inference pass computes everything reachable
    from the function through the call graph and reports an
    ``effect-contract`` finding for any effect outside the declared set.
    At runtime the decorator only tags the function (zero overhead) so
    tooling can introspect purity via ``__repro_effects__``.

    Usage::

        @effects("pure")            # no effects at all
        def kernel(p, q): ...

        @effects(allow={"rng"})     # may draw randomness, nothing else
        def complete(values, mask, *, rng=None): ...

    ``"pure"`` is shorthand for the empty effect set and cannot be
    combined with effect names.  Effect names outside
    :data:`EFFECT_NAMES` are rejected at decoration time so the static
    checker and the runtime tag can never disagree on vocabulary.
    """
    pure = "pure" in declared
    names = {d for d in declared if d != "pure"}
    allowed = names | set(allow)
    if pure and allowed:
        raise ValueError("@effects('pure') cannot be combined with effect names")
    unknown = allowed - EFFECT_NAMES
    if unknown:
        known = ", ".join(sorted(EFFECT_NAMES))
        raise ValueError(
            f"unknown effect name(s) {sorted(unknown)!r} (known: {known})"
        )

    def decorator(func: F) -> F:
        func.__repro_effects__ = frozenset(allowed)  # type: ignore[attr-defined]
        return func

    return decorator


def hot_path(func: F) -> F:
    """Mark a function as a numerical hot path.

    Functions carrying this marker get the dtype-drift rule pack
    (``dtype-upcast-in-hot-path``, ``implicit-float64-literal``,
    ``dtype-dropping-op``) applied by ``repro lint``, keeping them safe
    to run in float32.  Runtime cost is zero — the
    decorator only sets ``__repro_hot_path__``.
    """
    func.__repro_hot_path__ = True  # type: ignore[attr-defined]
    return func


# ----------------------------------------------------------------------
# Unconditional validation helpers (formerly repro.utils.validation)
# ----------------------------------------------------------------------
def check_positive(value: float, name: str) -> float:
    """Require ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_fraction(value: float, name: str) -> float:
    """Require ``0 <= value <= 1``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")
    return float(value)


def check_probability(value: float, name: str) -> float:
    """Alias of :func:`check_fraction` with probability wording."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")
    return float(value)


def check_finite(array: np.ndarray, name: str) -> np.ndarray:
    """Require every element of ``array`` to be finite."""
    array = np.asarray(array)
    if not np.all(np.isfinite(array)):
        bad = int(np.size(array) - np.count_nonzero(np.isfinite(array)))
        raise ValueError(f"{name} contains {bad} non-finite element(s)")
    return array


def check_matrix_pair(
    values: np.ndarray,
    mask: np.ndarray,
    dtype: Optional[np.dtype] = np.dtype(np.float64),
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate a (measurement, indicator) matrix pair.

    Returns floating ``values`` and boolean ``mask`` of identical 2-D
    shape.  The indicator matrix ``B`` of the paper (Eq. 4) is accepted
    as any array coercible to bool.  By default ``values`` is coerced
    to float64; pass ``dtype=None`` to preserve an existing floating
    dtype (integer and other non-float inputs are still promoted to
    float64 so downstream solves stay in floating point).
    """
    if dtype is not None:
        values = np.asarray(values, dtype=dtype)
    else:
        values = np.asarray(values)
        if values.dtype.kind != "f":
            values = values.astype(np.float64)
    mask = np.asarray(mask)
    if values.ndim != 2:
        raise ValueError(f"values must be 2-D, got shape {values.shape}")
    if mask.shape != values.shape:
        raise ValueError(
            f"mask shape {mask.shape} does not match values shape {values.shape}"
        )
    mask = mask.astype(bool)
    observed = values[mask]
    if observed.size and not np.all(np.isfinite(observed)):
        raise ValueError("observed entries must be finite")
    return values, mask
