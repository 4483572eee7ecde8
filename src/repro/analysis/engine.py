"""Scope- and dataflow-aware analysis engine for ``repro lint``.

The original linter matched per-node AST patterns; the parallel-safety
rule family (:mod:`repro.analysis.parallel_rules`) needs to answer
questions a single node cannot:

* *Where does this name live?*  A mutation of a local is private; the
  same statement against a closure variable or module global is shared
  state when the function runs on a worker pool.
* *What does this name hold?*  Iterating ``seen`` is only suspicious if
  ``seen`` was bound to a ``set``; capturing ``rng`` into a process
  worker only matters if ``rng`` was bound to an RNG.
* *Which functions run on a pool?*  ``parallel_map(fn, ...)``,
  ``executor.submit(fn, ...)`` and ``executor.map(fn, ...)`` create
  call-graph edges from the submission site into the worker body —
  possibly through a trampoline lambda.

:class:`SymbolTable` builds one lexical-scope tree per module with a
per-scope binding census (parameters, assignments, ``global`` /
``nonlocal`` declarations, mutable default arguments) plus a light
intra-scope dataflow summary (names bound to set-like values, names
bound to RNGs).  :func:`scope_mutations` lists every mutation a scope
performs with the *resolved* storage class of the mutated name, and
:func:`find_workers` extracts the parallel call-graph edges.  All of it
is shared infrastructure: every rule sees the same resolution logic, so
suppressions and fixes behave consistently across the family.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

__all__ = [
    "FunctionNode",
    "Mutation",
    "Scope",
    "SymbolTable",
    "Worker",
    "attribute_chain",
    "find_workers",
    "iter_scope_nodes",
    "order_sensitive_sink",
    "scope_mutations",
    "unordered_source_label",
]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]
ScopeNode = Union[ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]

#: Methods that mutate their receiver in place (containers + ndarrays).
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "add",
        "discard",
        "update",
        "setdefault",
        "sort",
        "reverse",
        "fill",
        "resize",
        "partition",
        "put",
        "setfield",
        "setflags",
    }
)

#: Call chains whose result is an RNG (central plumbing + raw NumPy).
_RNG_CALL_TAILS = frozenset(
    {"ensure_rng", "spawn_rngs", "default_rng", "RandomState", "Generator", "SeedSequence"}
)

#: Calls producing unordered (or platform-ordered) iterables.
_UNORDERED_CALL_TAILS = frozenset({"listdir", "scandir", "glob", "iglob", "iterdir"})


def attribute_chain(node: ast.AST) -> List[str]:
    """``a.b.c`` -> ``["a", "b", "c"]``; empty when not a pure chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return []


def iter_scope_nodes(root: ScopeNode) -> Iterator[ast.AST]:
    """Walk ``root``'s own scope, not descending into nested scopes.

    Yields every AST node that executes *in* the scope of ``root``:
    nested function/class/lambda definitions are yielded (the def runs
    here) but their bodies are not (they run in a child scope).
    Comprehension generators are treated as part of the enclosing scope
    — close enough for this linter, and how people read the code.
    """
    if isinstance(root, ast.Lambda):
        body: List[ast.AST] = [root.body]
    elif isinstance(root, ast.Module):
        body = list(root.body)
    else:
        body = list(root.body)
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue  # child scope: the definition executes here, the body elsewhere
        stack.extend(ast.iter_child_nodes(node))


@dataclass
class Scope:
    """One lexical scope plus its binding census and dataflow summary."""

    node: ScopeNode
    parent: Optional["Scope"]
    name: str
    params: Set[str] = field(default_factory=set)
    assigned: Set[str] = field(default_factory=set)
    globals_decl: Set[str] = field(default_factory=set)
    nonlocals_decl: Set[str] = field(default_factory=set)
    #: Parameters whose default value is a shared mutable container.
    mutable_default_params: Set[str] = field(default_factory=set)
    #: Names bound (in this scope) to set-like values — ``set(...)``,
    #: set literals/comprehensions, ``frozenset(...)``.
    set_like: Set[str] = field(default_factory=set)
    #: Names bound (in this scope) to RNG objects, mapped to the line of
    #: the binding (``rng = ensure_rng(seed)`` and friends).
    rng_bound: Dict[str, int] = field(default_factory=dict)
    #: Function/lambda definitions directly in this scope, by name.
    functions: Dict[str, FunctionNode] = field(default_factory=dict)
    children: List["Scope"] = field(default_factory=list)

    @property
    def is_module(self) -> bool:
        return isinstance(self.node, ast.Module)

    @property
    def is_class(self) -> bool:
        return isinstance(self.node, ast.ClassDef)

    def binds(self, name: str) -> bool:
        """Whether this scope itself binds ``name``."""
        return name in self.params or name in self.assigned

    def resolve(self, name: str) -> str:
        """Storage class of ``name`` as seen from this scope.

        Returns one of ``"param"``, ``"local"``, ``"closure"``,
        ``"global"``, or ``"unknown"`` (unbound anywhere — builtin or
        truly undefined).  Class scopes are skipped during the upward
        walk, mirroring Python's own resolution rules.
        """
        if name in self.globals_decl:
            return "global"
        if name in self.nonlocals_decl:
            return "closure"
        if name in self.params:
            return "param"
        if name in self.assigned:
            return "local" if not self.is_module else "global"
        scope = self.parent
        while scope is not None:
            if scope.is_class:
                scope = scope.parent
                continue
            if scope.binds(name):
                return "global" if scope.is_module else "closure"
            scope = scope.parent
        return "unknown"

    def lookup_scope(self, name: str) -> Optional["Scope"]:
        """The scope that binds ``name`` (self included), or ``None``."""
        scope: Optional[Scope] = self
        while scope is not None:
            if scope.is_class and scope is not self:
                scope = scope.parent
                continue
            if scope.binds(name):
                return scope
            scope = scope.parent
        return None

    def resolve_function(self, name: str) -> Optional[FunctionNode]:
        """The function definition ``name`` refers to, if statically known."""
        scope = self.lookup_scope(name)
        if scope is not None and name in scope.functions:
            return scope.functions[name]
        return None


class SymbolTable:
    """Lexical-scope tree of one module, indexed by scope node identity."""

    def __init__(self, module_scope: Scope, by_node: Dict[int, Scope]):
        self.module_scope = module_scope
        self._by_node = by_node

    @classmethod
    def build(cls, tree: ast.Module) -> "SymbolTable":
        module_scope = Scope(node=tree, parent=None, name="<module>")
        by_node: Dict[int, Scope] = {id(tree): module_scope}
        _populate(tree, module_scope, by_node)
        return cls(module_scope, by_node)

    def scope_of(self, node: ScopeNode) -> Scope:
        """The :class:`Scope` of a function/class/lambda/module node."""
        return self._by_node[id(node)]

    def functions(self) -> Iterator[Tuple[Scope, FunctionNode]]:
        """Every (scope, def) pair for functions and lambdas, module order."""
        for scope in self._by_node.values():
            if isinstance(scope.node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield scope, scope.node

    def methods_named(self, name: str) -> List[FunctionNode]:
        """All function definitions with ``name`` anywhere in the module."""
        out: List[FunctionNode] = []
        for scope in self._by_node.values():
            if name in scope.functions:
                out.append(scope.functions[name])
        return out


def _populate(node: ScopeNode, scope: Scope, by_node: Dict[int, Scope]) -> None:
    """Fill ``scope`` from its own statements; recurse into child scopes."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        scope.params |= _param_names(node.args)
    for child in iter_scope_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope.assigned.add(child.name)
            scope.functions[child.name] = child
            sub = Scope(node=child, parent=scope, name=child.name)
            sub.mutable_default_params = _mutable_default_params(child)
            # by_node is this recursion's accumulator, not numerical data.
            # repro-lint: disable-next-line=param-mutation
            by_node[id(child)] = sub
            scope.children.append(sub)
            _populate(child, sub, by_node)
        elif isinstance(child, ast.Lambda):
            sub = Scope(node=child, parent=scope, name="<lambda>")
            # repro-lint: disable-next-line=param-mutation
            by_node[id(child)] = sub
            scope.children.append(sub)
            _populate(child, sub, by_node)
        elif isinstance(child, ast.ClassDef):
            scope.assigned.add(child.name)
            sub = Scope(node=child, parent=scope, name=child.name)
            # repro-lint: disable-next-line=param-mutation
            by_node[id(child)] = sub
            scope.children.append(sub)
            _populate(child, sub, by_node)
        elif isinstance(child, ast.Global):
            scope.globals_decl |= set(child.names)
        elif isinstance(child, ast.Nonlocal):
            scope.nonlocals_decl |= set(child.names)
        elif isinstance(child, ast.Name) and isinstance(child.ctx, (ast.Store, ast.Del)):
            scope.assigned.add(child.id)
        elif isinstance(child, (ast.Import, ast.ImportFrom)):
            for alias in child.names:
                bound = alias.asname or alias.name.split(".")[0]
                scope.assigned.add(bound)
        elif isinstance(child, ast.Assign):
            _record_value_bindings(child.targets, child.value, scope)
        elif isinstance(child, ast.AnnAssign) and child.value is not None:
            _record_value_bindings([child.target], child.value, scope)


def _param_names(args: ast.arguments) -> Set[str]:
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return set(names)


def _mutable_default_params(func: "ast.FunctionDef | ast.AsyncFunctionDef") -> Set[str]:
    """Parameters whose default is a mutable container (shared across calls)."""
    out: Set[str] = set()
    a = func.args
    positional = a.posonlyargs + a.args
    for arg, default in zip(positional[len(positional) - len(a.defaults):], a.defaults):
        if _is_mutable_value(default):
            out.add(arg.arg)
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None and _is_mutable_value(default):
            out.add(arg.arg)
    return out


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        chain = attribute_chain(node.func)
        if len(chain) == 1 and chain[0] in ("list", "dict", "set", "bytearray", "defaultdict"):
            return True
        if len(chain) >= 2 and chain[0] in ("np", "numpy"):
            return chain[-1] in ("zeros", "ones", "empty", "full", "array")
        if chain and chain[-1] == "defaultdict":
            return True
    return False


def _record_value_bindings(
    targets: Sequence[ast.AST], value: ast.AST, scope: Scope
) -> None:
    """Classify ``name = value`` bindings into the dataflow summaries."""
    names = [t.id for t in targets if isinstance(t, ast.Name)]
    if not names:
        return
    if _is_set_like(value):
        scope.set_like.update(names)
    if is_rng_expr(value):
        for name in names:
            scope.rng_bound.setdefault(name, value.lineno)


def _is_set_like(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        chain = attribute_chain(node.func)
        return len(chain) == 1 and chain[0] in ("set", "frozenset")
    return False


def is_rng_expr(node: ast.AST) -> bool:
    """Whether ``node`` is a call producing an RNG (or a list of them)."""
    if not isinstance(node, ast.Call):
        return False
    chain = attribute_chain(node.func)
    return bool(chain) and chain[-1] in _RNG_CALL_TAILS


def is_unordered_expr(node: ast.AST, scope: Scope) -> bool:
    """Whether iterating ``node`` yields elements in no guaranteed order.

    Covers set literals / comprehensions / ``set()`` calls, names the
    dataflow pass proved set-like, and the filesystem-order calls
    ``os.listdir`` / ``os.scandir`` / ``glob.glob`` / ``glob.iglob`` /
    ``Path.iterdir`` / ``Path.glob``.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        target = scope.lookup_scope(node.id)
        return target is not None and node.id in target.set_like
    if isinstance(node, ast.Call):
        chain = attribute_chain(node.func)
        if not chain:
            return False
        if len(chain) == 1 and chain[0] in ("set", "frozenset"):
            return True
        return chain[-1] in _UNORDERED_CALL_TAILS
    return False


def order_sensitive_sink(loop: "ast.For | ast.AsyncFor") -> str:
    """How the loop's body depends on iteration order; '' when it doesn't.

    Augmented assignments accumulate (float addition is not associative)
    and ``list.append`` bakes the order into the output — the two sinks
    that turn an unordered source into a nondeterministic result.
    """
    for node in ast.walk(loop):
        if isinstance(node, ast.AugAssign):
            return "accumulates with an augmented assignment"
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "append"
        ):
            return "appends to a list"
    return ""


def unordered_source_label(node: ast.expr) -> str:
    """Human label for an unordered iteration source expression."""
    chain = attribute_chain(node if not isinstance(node, ast.Call) else node.func)
    if isinstance(node, ast.Call) and chain:
        return f"{'.'.join(chain)}(...)"
    if isinstance(node, ast.Name):
        return f"set {node.id!r}"
    return "a set"


# ----------------------------------------------------------------------
# Mutations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Mutation:
    """One in-place state change performed directly by a scope.

    ``name`` is the root name being mutated; ``resolution`` is its
    storage class as seen from the mutating scope (``"local"``,
    ``"param"``, ``"closure"``, ``"global"``, ``"unknown"``); ``attr``
    is the first attribute hop for ``obj.attr``-style mutations
    (``self._entries[k] = v`` -> name ``"self"``, attr ``"_entries"``);
    ``kind`` is one of ``"augassign"``, ``"item-assign"``,
    ``"attr-assign"``, ``"method"`` (with ``method`` set).
    """

    name: str
    resolution: str
    kind: str
    node: ast.AST = field(compare=False)
    attr: str = ""
    method: str = ""


def _target_root(node: ast.AST) -> Tuple[str, str, str]:
    """(root name, first attr, kind-suffix) of an assignment target."""
    attr = ""
    kind = "item-assign"
    seen_attr: List[str] = []
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if isinstance(node, ast.Attribute):
            seen_attr.append(node.attr)
        node = node.value
    if seen_attr:
        attr = seen_attr[-1]
    if isinstance(node, ast.Name):
        return node.id, attr, kind
    return "", attr, kind


def scope_mutations(scope: Scope) -> List[Mutation]:
    """Every mutation the scope performs directly (not in nested defs)."""
    out: List[Mutation] = []

    def emit(name: str, kind: str, node: ast.AST, attr: str = "", method: str = "") -> None:
        if not name:
            return
        out.append(
            Mutation(
                name=name,
                resolution=scope.resolve(name),
                kind=kind,
                node=node,
                attr=attr,
                method=method,
            )
        )

    for node in iter_scope_nodes(scope.node):
        if isinstance(node, ast.AugAssign):
            target = node.target
            if isinstance(target, ast.Name):
                emit(target.id, "augassign", node)
            else:
                name, attr, _ = _target_root(target)
                emit(name, "augassign", node, attr=attr)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Attribute):
                    root = target.value
                    if isinstance(root, ast.Name):
                        emit(root.id, "attr-assign", node, attr=target.attr)
                elif isinstance(target, (ast.Subscript,)):
                    name, attr, kind = _target_root(target)
                    emit(name, kind, node, attr=attr)
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute) and f.attr in MUTATING_METHODS:
                chain = attribute_chain(f)
                if len(chain) >= 2:
                    attr = chain[1] if len(chain) >= 3 else ""
                    emit(chain[0], "method", node, attr=attr, method=f.attr)
    return out


# ----------------------------------------------------------------------
# Parallel call-graph edges
# ----------------------------------------------------------------------
@dataclass
class Worker:
    """One function submitted to a worker pool.

    ``submit_node`` is the submitting call; ``fn_expr`` the expression
    passed as the worker; ``fn_def`` its resolved definition when
    statically known (following one trampoline-lambda call edge);
    ``backend`` is ``"thread"``, ``"process"``, or ``"unknown"``;
    ``via`` names the submitting API (``"parallel_map"``, ``"submit"``,
    ``"map"``).
    """

    submit_node: ast.Call
    fn_expr: ast.expr
    fn_def: Optional[FunctionNode]
    backend: str
    via: str
    #: Lambda trampoline between the submission and ``fn_def``, if any.
    trampoline: Optional[ast.Lambda] = None


_EXECUTOR_CLASSES = {"ThreadPoolExecutor": "thread", "ProcessPoolExecutor": "process"}


def _executor_backend(base: ast.expr, scope: Scope) -> str:
    """Backend of ``base.submit(...)`` / ``base.map(...)``, best effort."""
    if isinstance(base, ast.Call):
        chain = attribute_chain(base.func)
        if chain and chain[-1] in _EXECUTOR_CLASSES:
            return _EXECUTOR_CLASSES[chain[-1]]
    if isinstance(base, ast.Name):
        bind_scope = scope.lookup_scope(base.id)
        if bind_scope is not None:
            for node in iter_scope_nodes(bind_scope.node):
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == base.id for t in node.targets
                ):
                    chain = attribute_chain(
                        node.value.func if isinstance(node.value, ast.Call) else node.value
                    )
                    if chain and chain[-1] in _EXECUTOR_CLASSES:
                        return _EXECUTOR_CLASSES[chain[-1]]
                elif isinstance(node, ast.withitem):
                    ctx = node.context_expr
                    if (
                        node.optional_vars is not None
                        and isinstance(node.optional_vars, ast.Name)
                        and node.optional_vars.id == base.id
                        and isinstance(ctx, ast.Call)
                    ):
                        chain = attribute_chain(ctx.func)
                        if chain and chain[-1] in _EXECUTOR_CLASSES:
                            return _EXECUTOR_CLASSES[chain[-1]]
        lowered = base.id.lower()
        if "process" in lowered:
            return "process"
    return "unknown"


def _looks_like_executor(base: ast.expr, scope: Scope) -> bool:
    """Whether ``base`` plausibly holds an Executor (for ``.map`` calls)."""
    if _executor_backend(base, scope) in ("thread", "process"):
        return True
    if isinstance(base, ast.Name):
        lowered = base.id.lower()
        return "executor" in lowered or "pool" in lowered
    return False


def _resolve_worker_fn(
    fn_expr: ast.expr, scope: Scope, table: SymbolTable
) -> Tuple[Optional[FunctionNode], Optional[ast.Lambda]]:
    """Resolve a worker expression to its definition, if statically known.

    Follows exactly one trampoline edge: for ``lambda x: f(x, extra)``
    the effective worker body is ``f``, so both the lambda and ``f`` are
    returned.  ``functools.partial(f, ...)`` resolves to ``f``.
    """
    if isinstance(fn_expr, ast.Lambda):
        body = fn_expr.body
        lam_scope = table.scope_of(fn_expr)
        if isinstance(body, ast.Call):
            inner, _ = _resolve_worker_fn(body.func, lam_scope, table)
            if inner is not None:
                return inner, fn_expr
        return fn_expr, None
    if isinstance(fn_expr, ast.Call):
        chain = attribute_chain(fn_expr.func)
        if chain and chain[-1] == "partial" and fn_expr.args:
            return _resolve_worker_fn(fn_expr.args[0], scope, table)
        return None, None
    if isinstance(fn_expr, ast.Name):
        return scope.resolve_function(fn_expr.id), None
    if isinstance(fn_expr, ast.Attribute):
        # self._method / module.func: fall back to a unique name match.
        candidates = table.methods_named(fn_expr.attr)
        if len(candidates) == 1:
            return candidates[0], None
    return None, None


def find_workers(tree: ast.Module, table: SymbolTable) -> List[Worker]:
    """All parallel call-graph edges in the module.

    Detects ``parallel_map(fn, items, ...)`` (any import spelling whose
    call chain ends in ``parallel_map``), ``<executor>.submit(fn, ...)``,
    and ``<executor>.map(fn, ...)`` where the receiver is a known or
    plausibly-named Executor.
    """
    workers: List[Worker] = []

    def visit(node: ast.AST, scope: Scope) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            child_scope = table.scope_of(node)
            for sub in ast.iter_child_nodes(node):
                visit(sub, child_scope)
            return
        if isinstance(node, ast.Call):
            chain = attribute_chain(node.func)
            if chain and chain[-1] == "parallel_map" and node.args:
                fn_def, tramp = _resolve_worker_fn(node.args[0], scope, table)
                workers.append(
                    Worker(
                        submit_node=node,
                        fn_expr=node.args[0],
                        fn_def=fn_def,
                        backend="thread",  # parallel_map runs on threads
                        via="parallel_map",
                        trampoline=tramp,
                    )
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("submit", "map")
                and node.args
                and _looks_like_executor(node.func.value, scope)
            ):
                fn_def, tramp = _resolve_worker_fn(node.args[0], scope, table)
                workers.append(
                    Worker(
                        submit_node=node,
                        fn_expr=node.args[0],
                        fn_def=fn_def,
                        backend=_executor_backend(node.func.value, scope),
                        via=node.func.attr,
                        trampoline=tramp,
                    )
                )
        for sub in ast.iter_child_nodes(node):
            visit(sub, scope)

    for top in tree.body:
        visit(top, table.module_scope)
    return workers
