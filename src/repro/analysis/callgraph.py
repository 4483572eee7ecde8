"""Whole-program module loading and call-graph construction.

The per-module :class:`~repro.analysis.engine.SymbolTable` answers
"where does this *name* live"; the parallel-safety rules built on it
only see hazards written directly in a worker's body.  This module
widens the view to the whole package so the effect-inference pass
(:mod:`repro.analysis.effects`) can reason *across calls*:

* :class:`Program` loads every file handed to the linter in one shot,
  derives a dotted module name for each (``src/repro/core/completion.py``
  -> ``repro.core.completion``), and records the module's import
  bindings (``import x.y as z``, ``from x import y``, relative forms).
* Every function, method, and lambda becomes a :class:`FunctionId`
  (module + qualified name) with a :class:`FunctionInfo` carrying its
  scope, decorator list, and resolved outgoing :class:`CallSite` edges.
* Call resolution covers direct calls, attribute-qualified
  ``module.fn`` calls through the import table, ``self._method`` /
  ``cls._method`` receivers, local class constructors (edge to
  ``__init__``), ``functools.partial(f, ...)``, and one-level lambda
  trampolines — the same resolution machinery the PR-4 worker discovery
  uses, now applied to every call site.  A pool submission
  (:meth:`Program.workers`) is one more edge: the function holding the
  submitting call calls the worker, or the lambda of a trampoline.
* :meth:`Program.sccs` condenses the graph into strongly connected
  components (iterative Tarjan) in reverse topological order, which is
  exactly the evaluation order the bottom-up effect fixpoint needs:
  every callee outside a component is finished before the component is
  entered, and mutual recursion inside one is handled by unioning over
  the component.

Resolution is deliberately best-effort: calls through unresolvable
receivers (an arbitrary object's method, a callable stored in a
container) produce no edge.  The linter is a reviewer, not a verifier —
unresolved edges mean missed findings, never false ones.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import (
    FunctionNode,
    Scope,
    SymbolTable,
    Worker,
    attribute_chain,
    find_workers,
    iter_scope_nodes,
)

__all__ = [
    "CallSite",
    "FunctionId",
    "FunctionInfo",
    "ModuleInfo",
    "Program",
    "module_name_for",
    "qualname_of_scope",
    "scope_of_node",
]


@dataclass(frozen=True, order=True)
class FunctionId:
    """Stable identity of one function: dotted module + qualified name."""

    module: str
    qualname: str

    def __str__(self) -> str:
        return f"{self.module}:{self.qualname}"


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge: ``callee`` invoked at ``line``."""

    callee: FunctionId
    line: int


@dataclass
class FunctionInfo:
    """One function of the program with its resolved outgoing edges."""

    fid: FunctionId
    node: FunctionNode
    scope: Scope
    module: "ModuleInfo"
    calls: List[CallSite] = field(default_factory=list)

    @property
    def line(self) -> int:
        return self.node.lineno

    @property
    def decorators(self) -> List[ast.expr]:
        if isinstance(self.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return list(self.node.decorator_list)
        return []


#: One import binding: local name -> (module, symbol-or-None).
#: ``symbol is None`` means the name binds a module object.
_ImportTarget = Tuple[str, Optional[str]]


@dataclass
class ModuleInfo:
    """One loaded module: AST, symbol table, imports, function index."""

    name: str
    path: str
    tree: ast.Module
    table: SymbolTable
    source_lines: Sequence[str]
    #: Local name -> import target, from module-level import statements.
    imports: Dict[str, _ImportTarget] = field(default_factory=dict)
    #: Top-level class name -> class Scope (for constructor resolution).
    classes: Dict[str, Scope] = field(default_factory=dict)
    #: AST node id -> FunctionId for every function/lambda in the module.
    function_ids: Dict[int, FunctionId] = field(default_factory=dict)


def module_name_for(path: "str | Path") -> str:
    """Dotted module name of a file, derived from ``__init__.py`` packages.

    Walks up from the file while the parent directory is a package
    (contains ``__init__.py``), so ``src/repro/core/completion.py``
    becomes ``repro.core.completion`` regardless of where the source
    tree is checked out.  A file outside any package is just its stem —
    which is what makes ad-hoc fixture directories in tests resolve
    ``import helper``-style siblings.
    """
    p = Path(path)
    parts = [p.stem] if p.stem != "__init__" else []
    parent = p.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        new_parent = parent.parent
        if new_parent == parent:  # filesystem root
            break
        parent = new_parent
    return ".".join(parts) if parts else p.stem


def qualname_of_scope(scope: Scope) -> str:
    """Dotted qualified name of a function scope (lambdas get ``@line``)."""
    parts: List[str] = []
    current: Optional[Scope] = scope
    while current is not None and not current.is_module:
        if isinstance(current.node, ast.Lambda):
            parts.append(f"<lambda>@{current.node.lineno}")
        else:
            parts.append(current.name)
        current = current.parent
    return ".".join(reversed(parts)) or "<module>"


def _enclosing_class(scope: Scope) -> Optional[Scope]:
    """The nearest enclosing class scope of a method, if any."""
    current = scope.parent
    while current is not None:
        if current.is_class:
            return current
        current = current.parent
    return None


class Program:
    """A set of modules analysed together as one program."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[FunctionId, FunctionInfo] = {}
        #: Function name -> every FunctionId with that trailing name,
        #: for the unique-name method fallback.
        self._by_name: Dict[str, List[FunctionId]] = {}

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    @classmethod
    def load(
        cls,
        files: Sequence[Tuple[str, str]],
        names: Optional[Sequence[str]] = None,
        trees: Optional[Sequence[Optional[ast.Module]]] = None,
    ) -> "Program":
        """Build a program from ``(path, source)`` pairs.

        ``names`` overrides the derived module names positionally (used
        by tests to build multi-module programs from strings).
        ``trees`` supplies pre-parsed ASTs positionally so callers that
        already parsed the sources (the lint runner) pay for parsing
        once; a ``None`` entry falls back to parsing here.  Files that
        do not parse are skipped — the per-file lint pass already
        reports the ``SyntaxError``.
        """
        program = cls()
        for i, (path, source) in enumerate(files):
            tree = trees[i] if trees is not None else None
            if tree is None:
                try:
                    tree = ast.parse(source, filename=path)
                except SyntaxError:
                    continue
            name = names[i] if names is not None else module_name_for(path)
            program._add_module(name, path, tree, source.splitlines())
        program._resolve_all_calls()
        return program

    @classmethod
    def from_sources(cls, sources: Dict[str, str]) -> "Program":
        """Program from ``{module_name: source}`` (test convenience)."""
        pairs = [(f"{name.replace('.', '/')}.py", src) for name, src in sources.items()]
        return cls.load(pairs, names=list(sources))

    def _add_module(
        self, name: str, path: str, tree: ast.Module, source_lines: Sequence[str]
    ) -> None:
        table = SymbolTable.build(tree)
        minfo = ModuleInfo(
            name=name, path=path, tree=tree, table=table, source_lines=source_lines
        )
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                minfo.classes[node.name] = table.scope_of(node)
        self._record_imports(minfo)
        for scope, fn_node in table.functions():
            fid = FunctionId(module=name, qualname=qualname_of_scope(scope))
            info = FunctionInfo(fid=fid, node=fn_node, scope=scope, module=minfo)
            minfo.function_ids[id(fn_node)] = fid
            self.functions[fid] = info
            tail = fid.qualname.rsplit(".", 1)[-1]
            self._by_name.setdefault(tail, []).append(fid)
        self.modules[name] = minfo

    def _record_imports(self, minfo: ModuleInfo) -> None:
        for node in minfo.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        minfo.imports[alias.asname] = (alias.name, None)
                    else:
                        # ``import a.b.c`` binds ``a``; attribute chains
                        # through it are resolved part by part.
                        root = alias.name.split(".")[0]
                        minfo.imports[root] = (root, None)
            elif isinstance(node, ast.ImportFrom):
                module = self._absolute_module(node, minfo.name)
                if module is None:
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name
                    submodule = f"{module}.{alias.name}"
                    if submodule in self.modules or alias.name == "*":
                        minfo.imports[bound] = (submodule, None)
                    else:
                        # Defer module-vs-symbol: modules loaded later
                        # are re-checked in _import_module_target.
                        minfo.imports[bound] = (module, alias.name)

    @staticmethod
    def _absolute_module(node: ast.ImportFrom, current: str) -> Optional[str]:
        """Absolute dotted module a ``from ... import`` refers to."""
        if node.level == 0:
            return node.module
        parts = current.split(".")
        if node.level > len(parts):
            return None
        base = parts[: len(parts) - node.level]
        if node.module:
            base.append(node.module)
        return ".".join(base) if base else None

    # ------------------------------------------------------------------
    # Call resolution
    # ------------------------------------------------------------------
    def _resolve_all_calls(self) -> None:
        # The function each call node executes in, by AST containment.
        caller_of: Dict[int, FunctionInfo] = {}
        for info in self.functions.values():
            for node in _own_scope_calls(info.scope):
                caller_of[id(node)] = info
                callee = self.resolve_call(node, info.scope, info.module)
                _add_call(info, callee, node.lineno)
        # A pool submission runs its worker, so the submitting function
        # calls it; through a lambda trampoline, it calls the lambda,
        # whose own body calls the worker.
        for minfo, worker, fid in self.workers():
            submitter = caller_of.get(id(worker.submit_node))
            if submitter is None:
                continue
            if worker.trampoline is not None:
                fid = minfo.function_ids.get(id(worker.trampoline))
            _add_call(submitter, fid, worker.submit_node.lineno)

    def resolve_call(
        self, call: ast.Call, scope: Scope, minfo: ModuleInfo
    ) -> Optional[FunctionId]:
        """The function a call statically targets, when known."""
        chain = attribute_chain(call.func)
        if chain and chain[-1] == "partial" and call.args:
            return self.resolve_function_expr(call.args[0], scope, minfo)
        return self.resolve_function_expr(call.func, scope, minfo)

    def resolve_function_expr(
        self, expr: ast.expr, scope: Scope, minfo: ModuleInfo
    ) -> Optional[FunctionId]:
        """Resolve a function-valued expression to a :class:`FunctionId`.

        Handles bare names (local defs, imported symbols, local class
        constructors), dotted names through the import table,
        ``self``/``cls`` method receivers, ``functools.partial`` and
        one-level lambda trampolines.
        """
        if isinstance(expr, ast.Lambda):
            body = expr.body
            if isinstance(body, ast.Call):
                lam_scope = minfo.table.scope_of(expr)
                return self.resolve_call(body, lam_scope, minfo)
            return minfo.function_ids.get(id(expr))
        if isinstance(expr, ast.Call):
            chain = attribute_chain(expr.func)
            if chain and chain[-1] == "partial" and expr.args:
                return self.resolve_function_expr(expr.args[0], scope, minfo)
            return None
        chain = attribute_chain(expr)
        if not chain:
            return None
        if len(chain) == 1:
            return self._resolve_bare_name(chain[0], scope, minfo)
        return self._resolve_dotted(chain, scope, minfo)

    def _resolve_bare_name(
        self, name: str, scope: Scope, minfo: ModuleInfo
    ) -> Optional[FunctionId]:
        fn_node = scope.resolve_function(name)
        if fn_node is not None:
            return minfo.function_ids.get(id(fn_node))
        # Local class constructor: Foo() runs Foo.__init__.
        if name in minfo.classes:
            return self._class_init(minfo.name, name)
        bind_scope = scope.lookup_scope(name)
        if bind_scope is not None and not bind_scope.is_module:
            return None  # a local/param shadows any import
        target = minfo.imports.get(name)
        if target is not None:
            return self._import_target(target)
        return None

    def _resolve_dotted(
        self, chain: List[str], scope: Scope, minfo: ModuleInfo
    ) -> Optional[FunctionId]:
        base = chain[0]
        if base in ("self", "cls"):
            return self._resolve_method(chain, scope, minfo)
        if scope.lookup_scope(base) is not None and base not in minfo.imports:
            return None  # method call on an arbitrary local object
        target = minfo.imports.get(base)
        if target is None:
            return None
        module_name, symbol = target
        if symbol is not None:
            # ``from pkg import sub`` where ``sub`` turned out to be a
            # module loaded under ``pkg.sub``.
            candidate = f"{module_name}.{symbol}"
            if candidate in self.modules:
                module_name = candidate
            else:
                return None  # attribute access on an imported object
        # Walk the remaining chain: intermediate parts are submodules,
        # the final part the function (or class constructor).
        for part in chain[1:-1]:
            module_name = f"{module_name}.{part}"
        tail = chain[-1]
        target_module = self.modules.get(module_name)
        if target_module is None:
            return None
        if tail in target_module.classes:
            return self._class_init(module_name, tail)
        fid = FunctionId(module=module_name, qualname=tail)
        if fid in self.functions:
            return fid
        # Re-exported symbol (``from pkg import fn`` in __init__): one
        # hop through the target module's own import table.
        reexport = target_module.imports.get(tail)
        if reexport is not None:
            return self._import_target(reexport)
        return None

    def _resolve_method(
        self, chain: List[str], scope: Scope, minfo: ModuleInfo
    ) -> Optional[FunctionId]:
        """``self.method(...)`` / ``cls.method(...)`` within a class."""
        if len(chain) != 2:
            return None
        method = chain[1]
        cls_scope = _enclosing_class(scope)
        if cls_scope is not None and method in cls_scope.functions:
            fid = minfo.function_ids.get(id(cls_scope.functions[method]))
            if fid is not None:
                return fid
        # Inherited or cross-class: fall back to a program-wide unique
        # name match, mirroring the PR-4 worker-resolution heuristic.
        candidates = self._by_name.get(method, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def _class_init(self, module: str, cls_name: str) -> Optional[FunctionId]:
        fid = FunctionId(module=module, qualname=f"{cls_name}.__init__")
        return fid if fid in self.functions else None

    def _import_target(self, target: _ImportTarget) -> Optional[FunctionId]:
        module_name, symbol = target
        if symbol is None:
            return None  # a bare module binding is not callable
        candidate_module = f"{module_name}.{symbol}"
        if candidate_module in self.modules:
            return None  # the symbol is a module, not a function
        target_module = self.modules.get(module_name)
        if target_module is None:
            return None
        if symbol in target_module.classes:
            return self._class_init(module_name, symbol)
        fid = FunctionId(module=module_name, qualname=symbol)
        if fid in self.functions:
            return fid
        reexport = target_module.imports.get(symbol)
        if reexport is not None and reexport != target:
            return self._import_target(reexport)
        return None

    # ------------------------------------------------------------------
    # Workers (parallel call-graph edges), program-resolved
    # ------------------------------------------------------------------
    def workers(self) -> Iterator[Tuple[ModuleInfo, Worker, Optional[FunctionId]]]:
        """Every pool submission with its worker resolved program-wide.

        Per-module resolution (:func:`~repro.analysis.engine.find_workers`)
        is tried first; cross-module workers (``parallel_map(mod.fn, ...)``)
        fall back to the import table.
        """
        for minfo in self.modules.values():
            for worker in find_workers(minfo.tree, minfo.table):
                fid: Optional[FunctionId] = None
                if worker.fn_def is not None:
                    fid = minfo.function_ids.get(id(worker.fn_def))
                if fid is None:
                    scope = scope_of_node(minfo, worker.submit_node)
                    fid = self.resolve_function_expr(worker.fn_expr, scope, minfo)
                yield minfo, worker, fid

    # ------------------------------------------------------------------
    # SCC condensation
    # ------------------------------------------------------------------
    def sccs(self) -> List[List[FunctionId]]:
        """Strongly connected components in reverse topological order.

        The first component has no edges into later components, so a
        single pass over this order lets each function union its
        callees' already-final effect sets (iterative Tarjan — no
        recursion limit on deep call chains).
        """
        index: Dict[FunctionId, int] = {}
        lowlink: Dict[FunctionId, int] = {}
        on_stack: Set[FunctionId] = set()
        stack: List[FunctionId] = []
        components: List[List[FunctionId]] = []
        counter = [0]

        def edges(fid: FunctionId) -> List[FunctionId]:
            info = self.functions.get(fid)
            if info is None:
                return []
            return [c.callee for c in info.calls if c.callee in self.functions]

        for root in sorted(self.functions):
            if root in index:
                continue
            work: List[Tuple[FunctionId, int]] = [(root, 0)]
            while work:
                fid, edge_idx = work.pop()
                if edge_idx == 0:
                    index[fid] = lowlink[fid] = counter[0]
                    counter[0] += 1
                    stack.append(fid)
                    on_stack.add(fid)
                out = edges(fid)
                advanced = False
                for i in range(edge_idx, len(out)):
                    callee = out[i]
                    if callee not in index:
                        work.append((fid, i + 1))
                        work.append((callee, 0))
                        advanced = True
                        break
                    if callee in on_stack:
                        lowlink[fid] = min(lowlink[fid], index[callee])
                if advanced:
                    continue
                if lowlink[fid] == index[fid]:
                    component: List[FunctionId] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == fid:
                            break
                    components.append(sorted(component))
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[fid])
        return components


def _add_call(info: FunctionInfo, callee: Optional[FunctionId], line: int) -> None:
    """Record one edge of ``info``, unless unresolved, a self-call or a repeat."""
    if callee is None or callee == info.fid:
        return
    site = CallSite(callee=callee, line=line)
    if site not in info.calls:
        info.calls.append(site)


def _own_scope_calls(scope: Scope) -> Iterator[ast.Call]:
    """Every call node executing directly in ``scope`` (not nested defs)."""
    for node in iter_scope_nodes(scope.node):
        if isinstance(node, ast.Call):
            yield node


def scope_of_node(minfo: ModuleInfo, node: ast.AST) -> Scope:
    """The innermost scope a node executes in (module scope fallback)."""
    best = minfo.table.module_scope
    best_span = -1

    def visit(scope: Scope) -> None:
        nonlocal best, best_span
        s_node = scope.node
        start = getattr(s_node, "lineno", 0)
        end = getattr(s_node, "end_lineno", 10**9) or 10**9
        line = getattr(node, "lineno", 0)
        if not scope.is_module and start <= line <= end:
            span = end - start
            if best_span < 0 or span <= best_span:
                best, best_span = scope, span
        for child in scope.children:
            visit(child)

    visit(minfo.table.module_scope)
    return best
