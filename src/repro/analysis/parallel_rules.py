"""Parallel-safety lint rules (built on :mod:`repro.analysis.engine`).

The paper's headline claim — bit-reproducible recovery error curves —
survives PR 2/3's thread pools, scenario cache, and memoized GA fitness
only because every parallel seam follows three disciplines: workers are
pure functions of pre-built inputs, results are aggregated in
*submission* order, and shared caches are mutated under a lock.  These
rules make each discipline checkable:

* ``worker-shared-state`` — a function submitted to
  :func:`repro.utils.parallel.parallel_map` or an
  ``Executor.submit``/``map`` call mutates a module global, a closure
  variable, a mutable default argument, or instance state.  Two workers
  race; results depend on scheduling.
* ``fork-unsafe-rng`` — an RNG created *outside* the task body is
  captured into a **process**-pool worker.  Each forked child inherits a
  copy of the generator state, so "independent" draws collide (and on
  spawn-start platforms the streams silently diverge from the serial
  run).
* ``unordered-iteration`` — iterating a ``set`` (or ``os.listdir`` /
  ``glob``-style platform-ordered sources) into an order-sensitive
  reduction: float accumulation is non-associative, ``list.append``
  bakes the nondeterministic order into the output.
* ``unlocked-cache-mutation`` — a class owns a ``threading.Lock`` and a
  dict-valued attribute, but mutates the dict outside any ``with
  <lock>:`` block (the double-checked pattern done wrong).
* ``submit-result-ordering`` — results of
  ``concurrent.futures.as_completed`` aggregated positionally
  (``append`` / list()-materialisation): completion order varies run to
  run, so the aggregate does too.

All five resolve names through the shared :class:`~repro.analysis.engine.SymbolTable`
so "local temp" vs "shared global" is decided once, consistently.
Intentional sites are suppressed inline with
``# repro-lint: disable=<rule>`` plus a justification, exactly like the
numerical rules.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.callgraph import Program, qualname_of_scope, scope_of_node
from repro.analysis.effects import ProgramEffects, ReachableEffect, build_trace
from repro.analysis.engine import (
    FunctionNode,
    Mutation,
    Scope,
    SymbolTable,
    Worker,
    attribute_chain,
    find_workers,
    is_unordered_expr,
    iter_scope_nodes,
    order_sensitive_sink,
    scope_mutations,
    unordered_source_label,
)
from repro.analysis.findings import Finding, TraceFrame
from repro.analysis.rules import FileContext, Rule, register

__all__ = [
    "WorkerSharedStateRule",
    "ForkUnsafeRngRule",
    "UnorderedIterationRule",
    "UnlockedCacheMutationRule",
    "SubmitResultOrderingRule",
    "transitive_worker_findings",
]


class _EngineRule(Rule):
    """Base for rules that need the symbol table / worker graph."""

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        table = SymbolTable.build(tree)
        yield from self.check_module(tree, table, ctx)

    def check_module(
        self, tree: ast.Module, table: SymbolTable, ctx: FileContext
    ) -> Iterator[Finding]:
        raise NotImplementedError


def _worker_label(worker: Worker) -> str:
    fn = worker.fn_def
    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return f"worker {fn.name!r}"
    if isinstance(worker.fn_expr, ast.Lambda) or isinstance(fn, ast.Lambda):
        return "worker lambda"
    chain = attribute_chain(worker.fn_expr)
    if chain:
        return f"worker {'.'.join(chain)!r}"
    return "worker"


def _worker_scopes(
    worker: Worker, table: SymbolTable
) -> List[Tuple[Scope, FunctionNode]]:
    """Scopes whose code runs on the pool for this worker edge."""
    scopes: List[Tuple[Scope, FunctionNode]] = []
    if worker.trampoline is not None:
        scopes.append((table.scope_of(worker.trampoline), worker.trampoline))
    if worker.fn_def is not None and worker.fn_def is not worker.trampoline:
        scopes.append((table.scope_of(worker.fn_def), worker.fn_def))
    return scopes


@register
class WorkerSharedStateRule(_EngineRule):
    """Flag pool-submitted functions that mutate shared state.

    A worker that writes a module global, a closure variable, a mutable
    default argument, or ``self.<attr>`` races against its siblings: the
    final state depends on interleaving, so two runs of the "same"
    computation can disagree.  Workers must be pure functions of
    arguments prepared before dispatch; accumulate via return values,
    not side effects.
    """

    name = "worker-shared-state"
    description = "pool-submitted function mutates shared state"
    severity = "error"

    def check_module(
        self, tree: ast.Module, table: SymbolTable, ctx: FileContext
    ) -> Iterator[Finding]:
        seen: Set[Tuple[int, int]] = set()
        for worker in find_workers(tree, table):
            label = _worker_label(worker)
            for scope, fn in _worker_scopes(worker, table):
                for mutation in scope_mutations(scope):
                    shared = self._shared_reason(mutation, scope)
                    if not shared:
                        continue
                    key = (id(fn), getattr(mutation.node, "lineno", 0))
                    if key in seen:
                        continue
                    seen.add(key)
                    yield self.finding(
                        ctx,
                        mutation.node,
                        f"{label} (submitted via {worker.via} at line "
                        f"{worker.submit_node.lineno}) mutates {shared}",
                        "make the worker pure: pass inputs explicitly and "
                        "aggregate returned values on the submitting thread",
                    )

    @staticmethod
    def _shared_reason(mutation: Mutation, scope: Scope) -> str:
        if mutation.name in ("self", "cls"):
            target = f"{mutation.name}.{mutation.attr}" if mutation.attr else mutation.name
            return f"shared instance state {target!r}"
        if mutation.resolution == "global":
            return f"module global {mutation.name!r}"
        if mutation.resolution == "closure":
            return f"closure variable {mutation.name!r}"
        if (
            mutation.resolution == "param"
            and mutation.name in scope.mutable_default_params
        ):
            return f"mutable default argument {mutation.name!r}"
        return ""


@register
class ForkUnsafeRngRule(_EngineRule):
    """Flag RNGs created outside the task body captured by process workers.

    On a process pool (a ``ProcessPoolExecutor``; ``parallel_map`` runs
    on threads) each child receives a *copy* of the captured generator,
    so every worker draws the identical stream —
    "independent" restarts silently coincide — and under spawn-start the
    parallel run no longer matches the serial one bit for bit.  Draw all
    randomness before dispatch (:func:`repro.utils.rng.spawn_rngs`) or
    create the RNG inside the task from an explicit per-task seed.
    """

    name = "fork-unsafe-rng"
    description = "RNG created outside the task captured into a process worker"
    severity = "error"

    def check_module(
        self, tree: ast.Module, table: SymbolTable, ctx: FileContext
    ) -> Iterator[Finding]:
        for worker in find_workers(tree, table):
            if worker.backend != "process":
                continue
            label = _worker_label(worker)
            for scope, _fn in _worker_scopes(worker, table):
                for name, node in self._captured_rngs(scope):
                    yield self.finding(
                        ctx,
                        node,
                        f"{label} on a process pool captures RNG {name!r} "
                        "created outside the task body — forked copies share "
                        "its state",
                        "prepare per-task seeds/rngs up front "
                        "(repro.utils.rng.spawn_rngs) and pass them as "
                        "arguments",
                    )

    @staticmethod
    def _captured_rngs(scope: Scope) -> Iterator[Tuple[str, ast.AST]]:
        reported: Set[str] = set()
        for node in iter_scope_nodes(scope.node):
            if not (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)):
                continue
            name = node.id
            if name in reported or scope.binds(name):
                continue
            bind_scope = scope.lookup_scope(name)
            if bind_scope is None or bind_scope is scope:
                continue
            if name in bind_scope.rng_bound:
                reported.add(name)
                yield name, node


@register
class UnorderedIterationRule(_EngineRule):
    """Flag unordered iteration feeding an order-sensitive reduction.

    ``set`` iteration order is hash-randomised across interpreter runs;
    ``os.listdir`` / ``glob`` follow filesystem order.  Accumulating
    floats (``total += x`` — addition is not associative in IEEE 754) or
    appending to a list from such an iteration makes the result depend
    on that order.  Sort first (``for x in sorted(s)``) or use an
    order-insensitive aggregation.
    """

    name = "unordered-iteration"
    description = "unordered iteration into an order-sensitive reduction"
    severity = "warning"

    _ORDER_INSENSITIVE_SINKS = frozenset(
        {"set", "frozenset", "sorted", "len", "any", "all", "max", "min", "dict"}
    )

    def check_module(
        self, tree: ast.Module, table: SymbolTable, ctx: FileContext
    ) -> Iterator[Finding]:
        for scope in self._all_scopes(table.module_scope):
            if scope.is_class:
                continue
            yield from self._check_scope(scope, ctx)

    def _all_scopes(self, scope: Scope) -> Iterator[Scope]:
        yield scope
        for child in scope.children:
            yield from self._all_scopes(child)

    def _check_scope(self, scope: Scope, ctx: FileContext) -> Iterator[Finding]:
        for node in iter_scope_nodes(scope.node):
            if isinstance(node, (ast.For, ast.AsyncFor)) and is_unordered_expr(
                node.iter, scope
            ):
                sink = order_sensitive_sink(node)
                if sink:
                    yield self.finding(
                        ctx,
                        node,
                        f"iteration order of {unordered_source_label(node.iter)} "
                        f"is not deterministic, and the loop {sink}",
                        "iterate sorted(...) or aggregate order-insensitively",
                    )
            elif isinstance(node, ast.ListComp):
                for gen in node.generators:
                    if is_unordered_expr(gen.iter, scope):
                        yield self.finding(
                            ctx,
                            node,
                            f"list built from {unordered_source_label(gen.iter)} "
                            "inherits its nondeterministic order",
                            "wrap the source in sorted(...) or build a set",
                        )
                        break
            elif isinstance(node, ast.Call):
                yield from self._check_call_sink(node, scope, ctx)

    def _check_call_sink(
        self, call: ast.Call, scope: Scope, ctx: FileContext
    ) -> Iterator[Finding]:
        chain = attribute_chain(call.func)
        fn_name = chain[-1] if chain else ""
        if fn_name in self._ORDER_INSENSITIVE_SINKS:
            return
        for arg in call.args:
            # sum(x for x in seen) / sum(seen) / list(seen)
            if isinstance(arg, ast.GeneratorExp):
                for gen in arg.generators:
                    if is_unordered_expr(gen.iter, scope) and fn_name in (
                        "sum",
                        "fsum",
                        "list",
                        "tuple",
                        "enumerate",
                    ):
                        yield self.finding(
                            ctx,
                            call,
                            f"{fn_name}() over {unordered_source_label(gen.iter)} "
                            "accumulates in nondeterministic order",
                            "sort the source first (float addition is not "
                            "associative; lists bake the order in)",
                        )
                        return
            elif fn_name in ("sum", "fsum", "list", "tuple", "enumerate") and is_unordered_expr(
                arg, scope
            ):
                yield self.finding(
                    ctx,
                    call,
                    f"{fn_name}() consumes {unordered_source_label(arg)} in "
                    "nondeterministic order",
                    "use sorted(...) instead",
                )
                return


@register
class UnlockedCacheMutationRule(_EngineRule):
    """Flag dict-attribute mutations outside the owning class's lock.

    When a class carries both a ``threading.Lock`` and dict-valued
    attributes (the shape of every cross-thread cache in this repo,
    e.g. the scenario cache), *every* write to those dicts must happen
    inside ``with <lock>:`` — including the second check of a
    double-checked pattern.  An unlocked write races with concurrent
    readers and can publish half-built entries.
    """

    name = "unlocked-cache-mutation"
    description = "cache dict mutated outside the class's lock"
    severity = "error"

    _LOCK_TAILS = frozenset({"Lock", "RLock"})
    _DICT_MUTATORS = frozenset({"setdefault", "update", "pop", "popitem", "clear"})

    def check_module(
        self, tree: ast.Module, table: SymbolTable, ctx: FileContext
    ) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(node, ctx)

    def _check_class(self, cls: ast.ClassDef, ctx: FileContext) -> Iterator[Finding]:
        lock_attrs, dict_attrs = self._class_attr_census(cls)
        if not lock_attrs or not dict_attrs:
            return
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield from self._check_method(method, lock_attrs, dict_attrs, ctx)

    def _class_attr_census(self, cls: ast.ClassDef) -> Tuple[Set[str], Set[str]]:
        """(lock attribute names, dict attribute names) assigned on self."""
        locks: Set[str] = set()
        dicts: Set[str] = set()
        for node in ast.walk(cls):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                value = node.value
                if isinstance(value, ast.Call):
                    chain = attribute_chain(value.func)
                    if chain and chain[-1] in self._LOCK_TAILS:
                        locks.add(target.attr)
                    elif chain and chain[-1] in ("dict", "defaultdict", "OrderedDict"):
                        dicts.add(target.attr)
                elif isinstance(value, ast.Dict):
                    dicts.add(target.attr)
        return locks, dicts

    def _check_method(
        self,
        method: "ast.FunctionDef | ast.AsyncFunctionDef",
        lock_attrs: Set[str],
        dict_attrs: Set[str],
        ctx: FileContext,
    ) -> Iterator[Finding]:
        if method.name == "__init__":
            return  # construction happens-before any sharing
        for node, held in self._walk_with_locks(method, frozenset(), lock_attrs):
            attr = self._mutated_dict_attr(node, dict_attrs)
            if attr and not held:
                yield self.finding(
                    ctx,
                    node,
                    f"self.{attr} is mutated outside "
                    f"'with self.{sorted(lock_attrs)[0]}:' — concurrent "
                    "readers can observe a half-updated cache",
                    "move the write inside the lock (including the second "
                    "check of a double-checked pattern)",
                )

    def _walk_with_locks(
        self,
        node: ast.AST,
        held: "frozenset[str]",
        lock_attrs: Set[str],
    ) -> Iterator[Tuple[ast.AST, "frozenset[str]"]]:
        """Yield (node, locks-held) pairs, tracking ``with self.<lock>:``."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            child_held = held
            if isinstance(child, (ast.With, ast.AsyncWith)):
                acquired = {
                    item.context_expr.attr
                    for item in child.items
                    if isinstance(item.context_expr, ast.Attribute)
                    and isinstance(item.context_expr.value, ast.Name)
                    and item.context_expr.value.id == "self"
                    and item.context_expr.attr in lock_attrs
                }
                child_held = held | acquired
            yield child, child_held
            yield from self._walk_with_locks(child, child_held, lock_attrs)

    def _mutated_dict_attr(self, node: ast.AST, dict_attrs: Set[str]) -> str:
        """The dict attribute this node mutates, or ''."""

        def self_attr(expr: ast.AST) -> str:
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr in dict_attrs
            ):
                return expr.attr
            return ""

        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                base = target
                while isinstance(base, ast.Subscript):
                    base = base.value
                attr = self_attr(base)
                if attr and base is not target:  # subscript write, not rebinding
                    return attr
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in self._DICT_MUTATORS:
                return self_attr(node.func.value)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    attr = self_attr(target.value)
                    if attr:
                        return attr
        return ""


@register
class SubmitResultOrderingRule(_EngineRule):
    """Flag positional aggregation of ``as_completed`` results.

    ``as_completed`` yields futures in *completion* order, which varies
    run to run; appending ``.result()`` values to a list (or
    materialising the iterator) bakes that order into the output.  Keep
    a future->index map, or iterate the futures list in submission order
    (``Executor.map`` / :func:`repro.utils.parallel.parallel_map` do
    this for free).
    """

    name = "submit-result-ordering"
    description = "as_completed results aggregated positionally"
    severity = "error"

    def check_module(
        self, tree: ast.Module, table: SymbolTable, ctx: FileContext
    ) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.AsyncFor)) and self._is_as_completed(
                node.iter
            ):
                if self._appends_positionally(node):
                    yield self.finding(
                        ctx,
                        node,
                        "loop over as_completed(...) appends results in "
                        "completion order, which differs between runs",
                        "map futures back to their submission index "
                        "(futures[fut] = i) or iterate the futures list "
                        "in order",
                    )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                if any(self._is_as_completed(gen.iter) for gen in node.generators):
                    yield self.finding(
                        ctx,
                        node,
                        "comprehension over as_completed(...) collects "
                        "results in completion order",
                        "iterate the submitted futures in order instead",
                    )
            elif isinstance(node, ast.Call):
                chain = attribute_chain(node.func)
                if (
                    chain
                    and chain[-1] in ("list", "tuple")
                    and node.args
                    and self._is_as_completed(node.args[0])
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "materialising as_completed(...) fixes a "
                        "completion-dependent order",
                        "iterate the submitted futures in order instead",
                    )

    @staticmethod
    def _is_as_completed(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        chain = attribute_chain(node.func)
        return bool(chain) and chain[-1] == "as_completed"

    @staticmethod
    def _appends_positionally(loop: "ast.For | ast.AsyncFor") -> bool:
        for node in ast.walk(loop):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("append", "extend", "add")
            ):
                return True
            if isinstance(node, ast.AugAssign):
                return True
        return False


# ----------------------------------------------------------------------
# Transitive (whole-program) worker checks
# ----------------------------------------------------------------------
#: ``mutates-nonlocal`` sub-kinds that imply *cross-worker* shared state.
#: ``instance-state`` is deliberately absent: without receiver tracking
#: the analysis cannot tell a worker-local object from a shared one, and
#: direct ``self.<attr>`` mutation in a worker body is already caught by
#: the per-module rule above.
_SHARED_NONLOCAL_KINDS = frozenset({"closure", "mutable-default", "rebind"})

#: ``rng`` sub-kinds unsafe to reach from a process-pool worker.  Local
#: creation (``rng-create``) and drawing from an explicitly passed
#: generator (``rng-draw``) are the *recommended* patterns and must not
#: fire.
_FORK_UNSAFE_RNG_KINDS = frozenset({"rng-global", "rng-shared"})


def transitive_worker_findings(
    program: Program, effects: ProgramEffects
) -> List[Finding]:
    """Fire the worker rules through the call graph, with provenance.

    A pool-submitted function is flagged when anything *reachable* from
    it carries an unsafe effect.  Direct hazards (zero call hops) are
    skipped — the per-module rules already anchor those at the offending
    statement; this pass owns everything behind at least one call, and
    anchors the finding at the submission site with the full
    ``submit → worker → helper → offender`` chain on ``Finding.trace``.
    """
    findings: List[Finding] = []
    for minfo, worker, fid in program.workers():
        if fid is None or fid not in program.functions:
            continue
        label = _worker_label(worker)
        submit_line = worker.submit_node.lineno
        submit_scope = scope_of_node(minfo, worker.submit_node)
        head = TraceFrame(
            path=minfo.path,
            line=submit_line,
            function=qualname_of_scope(submit_scope),
            note=f"submits {label} via {worker.via} ({worker.backend} backend)",
        )
        snippet = ""
        if 1 <= submit_line <= len(minfo.source_lines):
            snippet = minfo.source_lines[submit_line - 1].strip()

        def emit(
            rule: str,
            severity: str,
            message: str,
            hint: str,
            reachable: ReachableEffect,
        ) -> None:
            findings.append(
                Finding(
                    path=minfo.path,
                    line=submit_line,
                    col=worker.submit_node.col_offset,
                    rule=rule,
                    message=message,
                    hint=hint,
                    severity=severity,
                    snippet=snippet,
                    trace=build_trace(program, reachable, head=head),
                )
            )

        table = effects.effects_of(fid)
        for (effect, kind), reachable in sorted(table.items()):
            if reachable.hops < 1:
                continue  # direct hazards belong to the per-module rules
            hops = f"{reachable.hops} call(s) deep"
            if effect == "mutates-global" or (
                effect == "mutates-nonlocal" and kind in _SHARED_NONLOCAL_KINDS
            ):
                emit(
                    "worker-shared-state",
                    "error",
                    f"{label} (submitted via {worker.via}) transitively "
                    f"{reachable.source.detail} ({hops}) — workers race on "
                    "shared state",
                    "make the reachable helper pure or pass state explicitly; "
                    "run `repro lint --explain` for the call chain",
                    reachable,
                )
            elif (
                effect == "rng"
                and kind in _FORK_UNSAFE_RNG_KINDS
                and worker.backend == "process"
            ):
                emit(
                    "fork-unsafe-rng",
                    "error",
                    f"{label} on a process pool transitively "
                    f"{reachable.source.detail} ({hops}) — forked children "
                    "repeat the same stream",
                    "derive per-task seeds up front "
                    "(repro.utils.rng.spawn_rngs) and pass them as arguments",
                    reachable,
                )
            elif effect == "unordered-iteration":
                emit(
                    "unordered-iteration",
                    "warning",
                    f"{label} (submitted via {worker.via}) reaches a "
                    f"nondeterministic reduction: {reachable.source.detail} "
                    f"({hops})",
                    "sort the source before the order-sensitive sink; "
                    "run `repro lint --explain` for the call chain",
                    reachable,
                )
    return findings
