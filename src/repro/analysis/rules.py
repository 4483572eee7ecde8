"""Numerical-correctness lint rules tailored to this codebase.

Every rule targets a *silent* failure mode of dense NumPy pipelines —
the kind that yields a plausible but wrong TCM estimate instead of a
crash:

* ``rng-discipline`` — ``np.random.*`` calls outside the central
  :mod:`repro.utils.rng` plumbing break end-to-end seeding.
* ``float-equality`` — ``==`` / ``!=`` against float literals (or NaN)
  silently misbehaves under round-off; tolerance is almost always meant.
* ``param-mutation`` — in-place mutation of an ndarray *parameter*
  (``+=``, slice assignment, ``.sort()``) leaks state back to callers.
* ``nan-unsafe-reduction`` — reducing a raw input array with
  ``np.mean``/``np.sum`` while a mask is in scope usually means the
  mask was forgotten and NaN/zero padding is being averaged in.
* ``bare-except`` — ``except:`` swallows ``KeyboardInterrupt`` and hides
  genuine numerical errors.
* ``mutable-default`` — mutable default arguments alias across calls.
* ``wall-clock-timing`` — ``time.time()`` is subject to NTP slew and
  clock steps; intervals measured with it are noise on exactly the
  machines where benchmarks run longest.  ``time.perf_counter()`` is
  the monotonic high-resolution choice for all timing sites.
* ``ingestion-loop`` — a per-report Python loop inside
  ``repro/probes/`` runs the interpreter once per probe report; at
  fleet scale (10^5–10^6 reports) that is the ingestion bottleneck.
  The batched APIs (``MapMatcher.match_batch``, ``aggregate_reports``,
  ``split_trajectories``) do the same work in a handful of array ops.
  Intentional scalar *reference* paths are suppressed inline.

Rules are registered in :data:`REGISTRY`; each receives the parsed AST
plus a :class:`FileContext` and yields :class:`~repro.analysis.findings.Finding`
objects.  Intentional violations are silenced inline with
``# repro-lint: disable=<rule>`` (see :mod:`repro.analysis.runner`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import PurePath
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Set, Type

from repro.analysis.findings import Finding

__all__ = [
    "FileContext",
    "Rule",
    "REGISTRY",
    "all_rules",
    "get_rules",
    "register",
]


@dataclass(frozen=True)
class FileContext:
    """Per-file information shared by every rule.

    Attributes
    ----------
    path:
        The path the file was loaded from (as reported in findings).
    source_lines:
        The file's source split into lines (1-based indexing via
        ``source_lines[line - 1]``).
    """

    path: str
    source_lines: Sequence[str]

    def posix_path(self) -> str:
        """Forward-slash form of :attr:`path` for suffix matching."""
        return PurePath(self.path).as_posix()


class Rule:
    """Base class: one named check over a parsed module."""

    name: str = ""
    description: str = ""
    #: Default severity of this rule's findings ("error"/"warning"/"note").
    severity: str = "warning"

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str, hint: str = ""
    ) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        snippet = ""
        if 1 <= line <= len(ctx.source_lines):
            snippet = ctx.source_lines[line - 1].strip()
        return Finding(
            path=ctx.path,
            line=line,
            col=getattr(node, "col_offset", 0),
            rule=self.name,
            message=message,
            hint=hint,
            severity=self.severity,
            snippet=snippet,
        )


REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to :data:`REGISTRY` by name."""
    if not rule_cls.name:
        raise ValueError(f"rule {rule_cls.__name__} has no name")
    if rule_cls.name in REGISTRY:
        raise ValueError(f"duplicate rule name {rule_cls.name!r}")
    REGISTRY[rule_cls.name] = rule_cls
    return rule_cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in registration order."""
    return [cls() for cls in REGISTRY.values()]


def get_rules(names: Iterable[str]) -> List[Rule]:
    """Instantiate the named rules; unknown names raise ``KeyError``."""
    rules = []
    for name in names:
        try:
            rules.append(REGISTRY[name]())
        except KeyError:
            known = ", ".join(sorted(REGISTRY))
            raise KeyError(f"unknown rule {name!r} (known: {known})") from None
    return rules


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def _attribute_chain(node: ast.AST) -> List[str]:
    """``a.b.c`` -> ``["a", "b", "c"]``; empty when not a pure chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return []


def _function_params(node: ast.AST) -> Set[str]:
    """All parameter names of a function definition node."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return set()
    a = node.args
    names = [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs]
    if a.vararg:
        names.append(a.vararg.arg)
    if a.kwarg:
        names.append(a.kwarg.arg)
    return set(names)


def _walk_functions(
    tree: ast.Module,
) -> Iterator["ast.FunctionDef | ast.AsyncFunctionDef"]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
@register
class RngDisciplineRule(Rule):
    """Flag ``np.random.*`` calls outside ``repro/utils/rng.py``.

    Direct use of the global NumPy RNG (or ad-hoc ``default_rng`` calls)
    bypasses the seed-derivation plumbing in :mod:`repro.utils.rng` and
    silently breaks experiment reproducibility.  Referencing
    ``np.random.Generator`` as a *type* (annotations, ``isinstance``) is
    fine; only calls are flagged.
    """

    name = "rng-discipline"
    description = "np.random.* call outside repro/utils/rng.py"
    _exempt_suffixes = ("repro/utils/rng.py",)

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        path = ctx.posix_path()
        if any(path.endswith(suffix) for suffix in self._exempt_suffixes):
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                chain = _attribute_chain(node.func)
                if len(chain) >= 3 and chain[0] in ("np", "numpy") and chain[1] == "random":
                    yield self.finding(
                        ctx,
                        node,
                        f"direct call to {'.'.join(chain)} bypasses seeded RNG plumbing",
                        "accept a SeedLike and use repro.utils.rng.ensure_rng/spawn_rngs",
                    )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module == "numpy.random" or module.startswith("numpy.random."):
                    names = {alias.name for alias in node.names}
                    # Importing the Generator *type* for annotations is fine.
                    if names - {"Generator", "SeedSequence", "BitGenerator"}:
                        yield self.finding(
                            ctx,
                            node,
                            f"import from {module} bypasses seeded RNG plumbing",
                            "use repro.utils.rng instead of numpy.random directly",
                        )


@register
class FloatEqualityRule(Rule):
    """Flag ``==`` / ``!=`` against float literals or NaN.

    Float round-off makes exact equality on computed values fragile:
    ``den == 0.0`` may hold on one BLAS and fail on another.  When a
    tolerance is meant, use ``math.isclose`` or an explicit threshold;
    when an exact sentinel comparison is intended (e.g. a value assigned
    literally and never computed), suppress with a justifying comment.
    """

    name = "float-equality"
    description = "== / != comparison against a float literal or NaN"

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for operand in (left, right):
                    if self._is_nan(operand):
                        yield self.finding(
                            ctx,
                            node,
                            "comparison against NaN is always False",
                            "use math.isnan / np.isnan",
                        )
                        break
                    if self._is_float_literal(operand):
                        yield self.finding(
                            ctx,
                            node,
                            "exact float equality is sensitive to round-off",
                            "use math.isclose / np.isclose or an explicit "
                            "tolerance; suppress if an exact sentinel is meant",
                        )
                        break

    @staticmethod
    def _is_float_literal(node: ast.AST) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return isinstance(node, ast.Constant) and type(node.value) is float

    @staticmethod
    def _is_nan(node: ast.AST) -> bool:
        chain = _attribute_chain(node)
        return bool(chain) and chain[-1] == "nan"


@register
class ParamMutationRule(Rule):
    """Flag in-place mutation of function parameters.

    ``param += x``, ``param[...] = x``, and in-place ndarray methods
    (``sort``, ``fill``, ...) modify the *caller's* array through the
    shared buffer — a side effect that survives the call and corrupts
    later computations.  Copy first (``param = param.copy()``) or rebind
    (``param = param + x``) instead.
    """

    name = "param-mutation"
    description = "in-place mutation of a function parameter"
    _inplace_methods = frozenset(
        ("sort", "fill", "resize", "partition", "put", "setfield", "setflags", "byteswap")
    )
    _scalar_annotations = frozenset(("int", "float", "bool", "str", "complex", "bytes"))

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for func in _walk_functions(tree):
            params = _function_params(func) - {"self", "cls"}
            if not params:
                continue
            yield from self._check_function(func, params, ctx)

    def _check_function(
        self,
        func: "ast.FunctionDef | ast.AsyncFunctionDef",
        params: Set[str],
        ctx: FileContext,
    ) -> Iterator[Finding]:
        scalars = self._scalar_params(func)
        rebind_lines = self._first_rebind_lines(func)

        def is_live(name: str, line: int) -> bool:
            """Whether ``name`` still references the caller's object."""
            return name in params and line <= rebind_lines.get(name, line)

        for node in ast.walk(func):
            if isinstance(node, ast.AugAssign):
                target = node.target
                if (
                    isinstance(target, ast.Name)
                    and target.id not in scalars
                    and is_live(target.id, node.lineno)
                ):
                    # ``x += y`` rebinds immutables but mutates ndarrays
                    # through the shared buffer.
                    yield self.finding(
                        ctx,
                        node,
                        f"augmented assignment mutates parameter {target.id!r} "
                        "in place when it is an ndarray",
                        f"rebind: {target.id} = {target.id} <op> ...",
                    )
                else:
                    root = self._subscript_root(target)
                    if is_live(root, node.lineno):
                        yield self.finding(
                            ctx,
                            node,
                            f"augmented item assignment mutates parameter {root!r} in place",
                            f"copy first: {root} = {root}.copy()",
                        )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    root = self._subscript_root(target)
                    if is_live(root, node.lineno):
                        yield self.finding(
                            ctx,
                            node,
                            f"slice/item assignment mutates parameter {root!r} in place",
                            f"copy first: {root} = {root}.copy()",
                        )
            elif isinstance(node, ast.Call):
                f = node.func
                if (
                    isinstance(f, ast.Attribute)
                    and f.attr in self._inplace_methods
                    and isinstance(f.value, ast.Name)
                    and f.value.id not in scalars
                    and is_live(f.value.id, node.lineno)
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f".{f.attr}() mutates parameter {f.value.id!r} in place",
                        f"use the copying variant (e.g. np.{f.attr}({f.value.id}))",
                    )

    def _scalar_params(
        self, func: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> Set[str]:
        """Parameters annotated with an immutable scalar type."""
        scalars: Set[str] = set()
        a = func.args
        for arg in a.posonlyargs + a.args + a.kwonlyargs:
            ann = arg.annotation
            if isinstance(ann, ast.Name) and ann.id in self._scalar_annotations:
                scalars.add(arg.arg)
        return scalars

    @staticmethod
    def _first_rebind_lines(
        func: "ast.FunctionDef | ast.AsyncFunctionDef",
    ) -> Dict[str, int]:
        """First line where each name is rebound by a plain assignment.

        A mutation *after* ``x = list(x)`` touches the local copy, not
        the caller's object, so such sites are not flagged.  (This is
        flow-insensitive by line number — good enough in practice, and
        ``np.asarray`` aliasing is deliberately given the benefit of the
        doubt.)
        """
        lines: Dict[str, int] = {}
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        lines.setdefault(target.id, node.lineno)
        return lines

    @staticmethod
    def _subscript_root(node: ast.AST) -> str:
        """Name at the base of a subscript target ('' when not a subscript)."""
        if not isinstance(node, ast.Subscript):
            return ""
        value: ast.AST = node
        while isinstance(value, ast.Subscript):
            value = value.value
        return value.id if isinstance(value, ast.Name) else ""


@register
class NanUnsafeReductionRule(Rule):
    """Flag mask-oblivious reductions of raw input arrays.

    Inside a function where some ``*mask*`` variable is in scope, a
    plain ``np.mean(values)`` / ``values.sum()`` over an *unmodified
    parameter* almost always forgot to apply the mask — it averages the
    zero/NaN padding of unobserved cells into the statistic.
    """

    name = "nan-unsafe-reduction"
    description = "reduction over a raw parameter while a mask is in scope"
    _reductions = frozenset(
        ("mean", "sum", "std", "var", "median", "average", "min", "max", "prod")
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for func in _walk_functions(tree):
            params = _function_params(func) - {"self", "cls"}
            if not params:
                continue
            masks = self._mask_names(func, params)
            if not masks:
                continue
            # Parameters rebound in the body are no longer "raw" inputs,
            # and reducing the mask itself (e.g. ``mask.sum()`` to count
            # observations) is legitimate.
            raw = params - self._rebound_names(func) - masks
            if not raw:
                continue
            yield from self._check_function(func, raw, ctx)

    def _mask_names(self, func: ast.AST, params: Set[str]) -> Set[str]:
        names = {p for p in params if "mask" in p.lower()}
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                if "mask" in node.id.lower():
                    names.add(node.id)
        return names

    @staticmethod
    def _rebound_names(func: ast.AST) -> Set[str]:
        rebound: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        rebound.add(target.id)
        return rebound

    def _check_function(
        self, func: ast.AST, raw_params: Set[str], ctx: FileContext
    ) -> Iterator[Finding]:
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            arg_name = self._reduced_param(node, raw_params)
            if arg_name:
                yield self.finding(
                    ctx,
                    node,
                    f"reduction over raw parameter {arg_name!r} ignores the "
                    "mask in scope (zero/NaN padding enters the statistic)",
                    f"reduce the selected cells, e.g. {arg_name}[mask], or use "
                    "a nan-aware reduction",
                )

    def _reduced_param(self, call: ast.Call, raw_params: Set[str]) -> str:
        f = call.func
        # np.mean(param, ...) / numpy.mean(param, ...)
        chain = _attribute_chain(f)
        if (
            len(chain) == 2
            and chain[0] in ("np", "numpy")
            and chain[1] in self._reductions
            and call.args
            and isinstance(call.args[0], ast.Name)
            and call.args[0].id in raw_params
        ):
            return call.args[0].id
        # param.mean(...)
        if (
            isinstance(f, ast.Attribute)
            and f.attr in self._reductions
            and isinstance(f.value, ast.Name)
            and f.value.id in raw_params
        ):
            return f.value.id
        return ""


@register
class BareExceptRule(Rule):
    """Flag ``except:`` handlers.

    A bare except swallows ``KeyboardInterrupt``/``SystemExit`` and — in
    numerical code — hides genuine ``LinAlgError``/``FloatingPointError``
    failures behind a fallback path.
    """

    name = "bare-except"
    description = "bare except: handler"

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    ctx,
                    node,
                    "bare except swallows KeyboardInterrupt and hides errors",
                    "catch Exception (or the specific error) instead",
                )


@register
class MutableDefaultRule(Rule):
    """Flag mutable default argument values.

    ``def f(history=[])`` shares one list across every call; appending
    to it accumulates state between unrelated invocations.
    """

    name = "mutable-default"
    description = "mutable default argument value"
    _mutable_calls = frozenset(("list", "dict", "set", "bytearray"))

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for func in _walk_functions(tree):
            defaults = list(func.args.defaults) + [
                d for d in func.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        ctx,
                        default,
                        "mutable default is shared across calls",
                        "default to None and create the value in the body",
                    )

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            chain = _attribute_chain(node.func)
            if len(chain) == 1 and chain[0] in self._mutable_calls:
                return True
            if len(chain) >= 2 and chain[0] in ("np", "numpy"):
                # np.zeros(...) etc. as a default is a shared buffer too.
                return chain[-1] in ("zeros", "ones", "empty", "full", "array")
        return False


@register
class WallClockTimingRule(Rule):
    """Flag ``time.time()`` used where an interval is being measured.

    ``time.time()`` follows the system wall clock, which NTP slews and
    steps; differences of two readings can be negative or off by the
    adjustment amount.  Every duration in this codebase (benchmarks,
    experiment runtime tables) must use the monotonic
    ``time.perf_counter()``.  A genuine epoch timestamp (log record,
    file name) is the one legitimate use — suppress those sites with
    ``# repro-lint: disable=wall-clock-timing`` and a justification.
    """

    name = "wall-clock-timing"
    description = "time.time() used for timing; use time.perf_counter()"

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                if _attribute_chain(node.func) == ["time", "time"]:
                    yield self.finding(
                        ctx,
                        node,
                        "time.time() is non-monotonic (NTP slew/steps) — "
                        "intervals computed from it are unreliable",
                        "use time.perf_counter(); suppress only for genuine "
                        "epoch timestamps",
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time" and any(
                    alias.name == "time" for alias in node.names
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "importing time() unqualified invites wall-clock "
                        "interval measurement",
                        "import time and call time.perf_counter() at timing sites",
                    )


@register
class IngestionLoopRule(Rule):
    """Flag per-report Python loops over probe batches in ``repro/probes/``.

    Iterating a :class:`~repro.probes.report.ReportBatch` report by
    report (``for r in batch``) or zipping its columns into a scalar
    loop re-enters the interpreter once per probe report.  The probes
    package is the ingestion hot path — at realistic fleet sizes these
    loops dominate end-to-end runtime, which is why every production
    path is columnar (``MapMatcher.match_batch``, ``aggregate_reports``,
    ``split_trajectories``) and the per-report reference loops live in
    the test oracles.  A loop that must stay is suppressed with
    ``# repro-lint: disable-next-line=ingestion-loop`` and a comment
    saying why.
    """

    name = "ingestion-loop"
    description = "per-report Python loop in the probe ingestion hot path"

    #: The columnar container itself converts rows to columns (and lazily
    #: back) by design; its boundary loops are the one place per-report
    #: iteration is the point.
    _exempt_suffixes = ("repro/probes/report.py",)

    #: Names that (by convention throughout ``repro.probes``) bind a
    #: whole batch of probe reports.  Only bare locals/parameters count:
    #: attribute accesses like ``traj.reports`` are per-trajectory
    #: (tens of elements), not fleet-scale.
    _BATCH_SUFFIXES = ("batch", "reports")

    #: Local-variable names that (again by convention) bind per-report
    #: column arrays; ``zip()``-ing them back into scalars undoes the
    #: columnar layout.
    _COLUMN_NAMES = frozenset(
        {
            "vehicles",
            "vehicle_ids",
            "times",
            "times_s",
            "xs",
            "ys",
            "speeds",
            "speeds_kmh",
            "segs",
            "segment_ids",
            "headings",
            "headings_deg",
            "slots",
        }
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        path = ctx.posix_path()
        if "repro/probes/" not in path:
            return
        if any(path.endswith(suffix) for suffix in self._exempt_suffixes):
            return
        for node in ast.walk(tree):
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters = [node.iter]
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters = [gen.iter for gen in node.generators]
            for it in iters:
                reason = self._per_report_reason(it)
                if reason:
                    yield self.finding(
                        ctx,
                        node,
                        f"per-report Python loop over {reason} runs the "
                        "interpreter once per probe report",
                        "use the batched array APIs (match_batch, "
                        "aggregate_reports, split_trajectories); suppress "
                        "only intentional scalar reference paths",
                    )
                    break

    def _per_report_reason(self, it: ast.expr) -> str:
        """Why iterating ``it`` is per-report; empty string if it isn't."""
        if self._is_batch_expr(it):
            return "a report batch"
        if (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id == "zip"
        ):
            for arg in it.args:
                if isinstance(arg, ast.Name) and arg.id in self._COLUMN_NAMES:
                    return "zipped report columns"
                chain = _attribute_chain(arg)
                if len(chain) >= 2 and self._is_batch_name(chain[0]):
                    return "zipped report columns"
        return ""

    def _is_batch_expr(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and self._is_batch_name(node.id)

    def _is_batch_name(self, name: str) -> bool:
        lowered = name.lower()
        return any(
            lowered == suffix or lowered.endswith("_" + suffix)
            for suffix in self._BATCH_SUFFIXES
        )


@register
class UnusedSuppressionRule(Rule):
    """Registry stub for the runner's suppression audit.

    The findings are produced by :mod:`repro.analysis.runner` after all
    other passes (it needs the full fired/suppressed picture), but the
    rule is registered here so ``--rules``/severity filtering, SARIF
    rule metadata, and ``disable=unused-suppression`` all treat it like
    any other rule.
    """

    name = "unused-suppression"
    description = "repro-lint suppression comment that silences no finding"
    severity = "warning"

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        return iter(())
