"""Static shape & dtype verification of ``@shapes`` contracts.

This module is an abstract interpreter over the whole-program call
graph (:mod:`repro.analysis.callgraph`).  Its abstract domain is

* **symbolic shapes** — each dim is a contract symbol (``"m"``), an
  exact size (``3``), or ⊤ (unknown), and a whole shape may be ⊤ when
  even the rank is unknown;
* **a dtype lattice** — ``bool < int < float32 < float64`` plus ⊤ and
  *tied* dtypes (``~values``: "whatever dtype the parameter ``values``
  has"), joined by NumPy's promotion rules (NEP 50: Python scalars are
  weak and never change an array operand's dtype).  ``int64`` marks
  the platform int that ``np.arange`` and int-literal ``np.array``
  return: unlike an int of unknown width, it promotes float32 to
  float64.

Function parameters are seeded from their ``@shapes`` decorators, the
body is interpreted with transfer functions for the NumPy surface the
codebase uses (matmul, transpose, reshape, broadcasting elementwise
ops, axis reductions, indexing, ``stack``/``concatenate``,
constructors, ``.astype``, ``np.linalg.solve``), and return summaries
propagate bottom-up over the call-graph SCCs so callers see callee
results symbolically.

The verifier only reports what it can **prove** under universal
quantification of the contract symbols: a symbolic dim stands for *any*
size, so requiring two distinct symbols (or a symbol and a constant) to
be equal is a genuine violation, while ⊤ always passes.  Unresolved
calls, untracked values, and unknown dims therefore cost recall, never
precision — the linter stays a reviewer that does not cry wolf.

Four rules come out of the pass:

* ``shape-mismatch`` — operands of a matmul / broadcast / solve have
  provably incompatible dims;
* ``rank-mismatch`` — an array's rank provably disagrees with an
  operation or a contract spec;
* ``static-contract-violation`` — a call site provably violates the
  callee's ``@shapes`` contract (dim bindings, exact sizes, or dtype
  family);
* ``dtype-policy-violation`` — inside a ``@hot_path`` function a
  provably-float64 operand meets a float32 (or parameter-tied) one, so
  float32 cannot survive the chain.  It is the one dtype rule of
  ``repro lint``.

Findings carry the inferred shapes as witness chains on
``Finding.trace`` (rendered by ``repro lint --explain`` and as SARIF
``codeFlows``) and flow through the standard suppression/baseline
machinery via the registry stubs at the bottom of this module.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.callgraph import FunctionId, FunctionInfo, Program
from repro.analysis.engine import attribute_chain
from repro.analysis.findings import Finding, TraceFrame
from repro.analysis.rules import FileContext, Rule, register
from repro.utils.shapespec import ShapeSpec, parse_shape_spec

__all__ = [
    "AbstractArray",
    "ShapeContract",
    "SHAPECHECK_RULE_NAMES",
    "parse_shapes_contract",
    "shape_findings",
]

#: Rules produced by this pass (all flow through the program runner).
SHAPECHECK_RULE_NAMES = frozenset(
    {
        "shape-mismatch",
        "rank-mismatch",
        "static-contract-violation",
        "dtype-policy-violation",
    }
)

# ----------------------------------------------------------------------
# Abstract domain
# ----------------------------------------------------------------------
#: One dim: contract symbol, exact size, or ``None`` (⊤ / unknown).
Dim = Optional[Union[str, int]]
#: A shape: dim tuple, or ``None`` when even the rank is unknown.
Shape = Optional[Tuple[Dim, ...]]

#: Dtype lattice elements: ``"bool"``/``"int"``/``"float32"``/``"float64"``
#: are provable, ``"?"`` is ⊤, and ``"~name"`` is tied to a parameter.
#: ``"int64"`` is the platform int (an ``"int"`` of known width).
DT_UNKNOWN = "?"

#: The bool and integer lattice elements, and the ones that turn float32
#: into float64.
_INTEGRAL = ("bool", "int", "int64")
_UPCASTS = ("float64", "int64")

_PROV_CAP = 4


@dataclass(frozen=True)
class AbstractArray:
    """One abstract array value: shape, dtype, and witness provenance."""

    shape: Shape
    dtype: str = DT_UNKNOWN
    prov: Tuple[TraceFrame, ...] = ()


@dataclass(frozen=True)
class _DimVal:
    """An integer scalar known (or tied) to a dim, e.g. ``x.shape[0]``."""

    dim: Dim


@dataclass(frozen=True)
class _ScalarVal:
    """A Python float scalar (weak-typed under NEP 50)."""


@dataclass(frozen=True)
class _TupleVal:
    """A tuple/list value whose items were individually tracked."""

    items: Tuple["Value", ...]

    @property
    def dims(self) -> Optional[Tuple[Dim, ...]]:
        """The items as a dim tuple when every item is dim-like."""
        out: Tuple[Dim, ...] = ()
        for item in self.items:
            if isinstance(item, _DimVal):
                out += (item.dim,)
            else:
                return None
        return out


Value = Union[AbstractArray, _DimVal, _ScalarVal, _TupleVal, None]


def _fmt_shape(shape: Shape) -> str:
    if shape is None:
        return "?"
    if not shape:
        return "()"
    return "(" + ", ".join("?" if d is None else str(d) for d in shape) + ")"


def _fmt_value(value: AbstractArray) -> str:
    text = _fmt_shape(value.shape)
    if value.dtype != DT_UNKNOWN:
        text += f" [{value.dtype.lstrip('~')}]" if value.dtype.startswith("~") else f" [{value.dtype}]"
    return text


def _merge_prov(*provs: Tuple[TraceFrame, ...]) -> Tuple[TraceFrame, ...]:
    seen: List[TraceFrame] = []
    for frames in provs:
        for frame in frames:
            if frame not in seen:
                seen.append(frame)
    if len(seen) > _PROV_CAP:
        seen = seen[: _PROV_CAP - 2] + seen[-2:]
    return tuple(seen)


def _join_dtype(a: str, b: str) -> str:
    """Join under NumPy promotion; ``"?"`` when the result is not provable."""
    if a == b:
        return a
    pair = {a, b}
    if "float64" in pair:
        # Every real dtype promotes with float64 to float64.
        return "float64"
    if "bool" in pair:
        # bool promotes losslessly to any other dtype.
        return (pair - {"bool"}).pop()
    if pair == {"int64", "float32"}:
        # float32 cannot hold every int64 exactly.
        return "float64"
    if pair == {"int64", "int"}:
        return "int"
    # int ⊔ float32 depends on the int width; tied ⊔ anything unknown.
    return DT_UNKNOWN


def _f32_like(dtype: str) -> bool:
    return dtype == "float32" or dtype.startswith("~")


def _hot_upcast(a: str, b: str) -> bool:
    """A provable float64, or the platform int, meets the float32 working dtype."""
    return (a in _UPCASTS and _f32_like(b)) or (b in _UPCASTS and _f32_like(a))


def _dims_conflict(a: Dim, b: Dim) -> bool:
    """Provably unequal under universal quantification of symbols."""
    return a is not None and b is not None and a != b


def _broadcast_conflict(a: Dim, b: Dim) -> bool:
    return _dims_conflict(a, b) and a != 1 and b != 1


def _broadcast_dim(a: Dim, b: Dim) -> Dim:
    if a == 1:
        return b
    if b == 1:
        return a
    if a is None:
        return b
    if b is None:
        return a
    return a


def _join_shape(a: Shape, b: Shape) -> Shape:
    if a is None or b is None or len(a) != len(b):
        return None
    return tuple(x if x == y else None for x, y in zip(a, b))


def _join_arrays(a: AbstractArray, b: AbstractArray) -> AbstractArray:
    return AbstractArray(
        shape=_join_shape(a.shape, b.shape),
        dtype=a.dtype if a.dtype == b.dtype else DT_UNKNOWN,
        prov=_merge_prov(a.prov, b.prov),
    )


# ----------------------------------------------------------------------
# Contract extraction from decorators
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShapeContract:
    """The shape-checkable part of one ``@shapes`` decorator."""

    #: Parameter name -> parsed spec (absent/None = unchecked parameter).
    specs: Tuple[Tuple[str, Optional[ShapeSpec]], ...]
    line: int

    def spec_of(self, name: str) -> Optional[ShapeSpec]:
        for pname, spec in self.specs:
            if pname == name:
                return spec
        return None


def _contract_params(info: FunctionInfo) -> List[str]:
    """Parameter names in the order positional specs align with."""
    node = info.node
    if isinstance(node, ast.Lambda):
        args = node.args
    else:
        args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return [n for n in names if n not in ("self", "cls")]


def _spec_of_node(node: ast.expr) -> Optional[ShapeSpec]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return parse_shape_spec(node.value)
        except ValueError:
            return None
    return None  # None / type specs are not shape-checkable


def parse_shapes_contract(info: FunctionInfo) -> Optional[ShapeContract]:
    """The ``@shapes`` contract declared on ``info``, if any."""
    for decorator in info.decorators:
        if not isinstance(decorator, ast.Call):
            continue
        chain = attribute_chain(decorator.func)
        if not chain or chain[-1] != "shapes":
            continue
        params = _contract_params(info)
        specs: Tuple[Tuple[str, Optional[ShapeSpec]], ...] = ()
        for pname, arg in zip(params, decorator.args):
            specs += ((pname, _spec_of_node(arg)),)
        for kw in decorator.keywords:
            if kw.arg and kw.arg != "finite":
                specs += ((kw.arg, _spec_of_node(kw.value)),)
        return ShapeContract(specs=specs, line=decorator.lineno)
    return None


def _is_hot_path(info: FunctionInfo) -> bool:
    for decorator in info.decorators:
        expr = decorator.func if isinstance(decorator, ast.Call) else decorator
        chain = attribute_chain(expr)
        if chain and chain[-1] == "hot_path":
            return True
    return False


# ----------------------------------------------------------------------
# Whole-program checker
# ----------------------------------------------------------------------
class _Checker:
    """Shared state of one whole-program shape-verification run."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.contracts: Dict[FunctionId, Optional[ShapeContract]] = {
            fid: parse_shapes_contract(info) for fid, info in program.functions.items()
        }
        self.summaries: Dict[FunctionId, Optional[AbstractArray]] = {}
        self.findings: List[Finding] = []
        self._seen: Set[Tuple[str, int, str, str]] = set()

    def run(self) -> List[Finding]:
        for component in self.program.sccs():
            for fid in component:
                self.summaries.setdefault(fid, None)
            for fid in component:
                summary = _FunctionInterpreter(self, self.program.functions[fid]).run()
                self.summaries[fid] = summary
        return self.findings

    def add_finding(self, finding: Finding) -> None:
        key = (finding.path, finding.line, finding.rule, finding.message)
        if key not in self._seen:
            self._seen.add(key)
            self.findings.append(finding)


def shape_findings(program: Program) -> List[Finding]:
    """Verify every ``@shapes`` contract of ``program`` statically."""
    return _Checker(program).run()


# ----------------------------------------------------------------------
# Per-function abstract interpretation
# ----------------------------------------------------------------------
_NOT_HANDLED = object()

_CTOR_F64 = frozenset({"zeros", "ones", "empty", "full", "eye", "identity", "linspace"})
_PASSTHROUGH_UNARY = frozenset(
    {
        "abs",
        "absolute",
        "ascontiguousarray",
        "asfortranarray",
        "copy",
        "nan_to_num",
        "negative",
        "positive",
        "round",
        "square",
        "sign",
        "conj",
        "flip",
        "fliplr",
        "flipud",
        "roll",
        "sort",
        "clip",
    }
)
_FLOAT_UNARY = frozenset(
    {
        "sqrt",
        "exp",
        "expm1",
        "log",
        "log1p",
        "log2",
        "log10",
        "sin",
        "cos",
        "tan",
        "arcsin",
        "arccos",
        "arctan",
        "sinh",
        "cosh",
        "tanh",
        "floor",
        "ceil",
        "trunc",
        "reciprocal",
    }
)
_BOOL_UNARY = frozenset({"isfinite", "isnan", "isinf", "signbit", "logical_not"})
_BINARY_UFUNCS = frozenset(
    {
        "add",
        "subtract",
        "multiply",
        "divide",
        "true_divide",
        "floor_divide",
        "power",
        "maximum",
        "minimum",
        "fmax",
        "fmin",
        "hypot",
        "arctan2",
        "mod",
        "remainder",
        "logical_and",
        "logical_or",
        "logical_xor",
    }
)
_REDUCTIONS = frozenset(
    {
        "sum",
        "nansum",
        "mean",
        "nanmean",
        "std",
        "var",
        "median",
        "nanmedian",
        "average",
        "min",
        "max",
        "amin",
        "amax",
        "nanmin",
        "nanmax",
        "prod",
        "all",
        "any",
        "argmin",
        "argmax",
        "count_nonzero",
        "ptp",
    }
)
_FLOAT_REDUCTIONS = frozenset(
    {"mean", "nanmean", "std", "var", "median", "nanmedian", "average"}
)
_INT_REDUCTIONS = frozenset({"argmin", "argmax", "count_nonzero"})
_BOOL_REDUCTIONS = frozenset({"all", "any"})
_DTYPE_NAMES = {
    "float32": "float32",
    "float64": "float64",
    "double": "float64",
    "single": "float32",
    "bool": "bool",
    "bool_": "bool",
    "int8": "int",
    "int16": "int",
    "int32": "int",
    "int64": "int",
    "intp": "int",
    "uint8": "int",
    "uint16": "int",
    "uint32": "int",
    "uint64": "int",
    "int": "int",
}


class _FunctionInterpreter:
    """Abstract interpretation of one function body."""

    def __init__(self, checker: _Checker, info: FunctionInfo) -> None:
        self.checker = checker
        self.program = checker.program
        self.info = info
        self.path = info.module.path
        self.qualname = info.fid.qualname
        self.hot = _is_hot_path(info)
        self.env: Dict[str, Value] = {}
        self.returns: List[Value] = []

    # -- driver --------------------------------------------------------
    def run(self) -> Optional[AbstractArray]:
        node = self.info.node
        if isinstance(node, ast.Lambda):
            value = self._eval(node.body)
            return value if isinstance(value, AbstractArray) else None
        self._seed_params()
        self._exec_block(node.body, conditional=False)
        return self._summary()

    def _seed_params(self) -> None:
        contract = self.checker.contracts.get(self.info.fid)
        if contract is None:
            return
        for name, spec in contract.specs:
            if spec is None:
                continue
            shape: Shape = tuple(None if d == "*" else d for d in spec.dims)
            frame = TraceFrame(
                path=self.path,
                line=contract.line,
                function=self.qualname,
                note=f"parameter '{name}' declared '{spec.render()}' by @shapes",
            )
            self.env[name] = AbstractArray(shape=shape, dtype=f"~{name}", prov=(frame,))

    def _summary(self) -> Optional[AbstractArray]:
        if not self.returns:
            return None
        arrays = [v for v in self.returns if isinstance(v, AbstractArray)]
        if len(arrays) != len(self.returns):
            return None  # some path returns a non-array (or untracked) value
        summary = arrays[0]
        for other in arrays[1:]:
            summary = _join_arrays(summary, other)
        return summary

    # -- findings ------------------------------------------------------
    def _finding(
        self,
        node: ast.AST,
        rule: str,
        message: str,
        hint: str,
        trace: Sequence[TraceFrame],
        severity: str = "error",
    ) -> None:
        line = getattr(node, "lineno", self.info.line)
        lines = self.info.module.source_lines
        snippet = lines[line - 1].strip() if 1 <= line <= len(lines) else ""
        self.checker.add_finding(
            Finding(
                path=self.path,
                line=line,
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=message,
                hint=hint,
                severity=severity,
                snippet=snippet,
                trace=tuple(trace),
            )
        )

    def _op_trace(
        self, node: ast.AST, note: str, *operands: AbstractArray
    ) -> Tuple[TraceFrame, ...]:
        prov = _merge_prov(*(op.prov for op in operands))
        offender = TraceFrame(
            path=self.path,
            line=getattr(node, "lineno", self.info.line),
            function=self.qualname,
            note=note,
        )
        return prov + (offender,)

    # -- statements ----------------------------------------------------
    def _exec_block(self, stmts: Sequence[ast.stmt], conditional: bool) -> None:
        for stmt in stmts:
            self._exec(stmt, conditional)

    def _exec(self, stmt: ast.stmt, conditional: bool) -> None:
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, value, conditional, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self._eval(stmt.value), conditional, stmt)
        elif isinstance(stmt, ast.AugAssign):
            self._exec_augassign(stmt)
        elif isinstance(stmt, ast.Return):
            self.returns.append(self._eval(stmt.value) if stmt.value else None)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            self._exec_block(stmt.body, True)
            self._exec_block(stmt.orelse, True)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            element = self._iter_element(self._eval(stmt.iter))
            self._assign(stmt.target, element, True, stmt)
            self._exec_block(stmt.body, True)
            self._exec_block(stmt.orelse, True)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            self._exec_block(stmt.body, True)
            self._exec_block(stmt.orelse, True)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, None, conditional, stmt)
            self._exec_block(stmt.body, conditional)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body, True)
            for handler in stmt.handlers:
                if handler.name:
                    self.env[handler.name] = None
                self._exec_block(handler.body, True)
            self._exec_block(stmt.orelse, True)
            self._exec_block(stmt.finalbody, conditional)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            self.env[stmt.name] = None  # nested defs are their own FunctionInfo
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc)

    def _exec_augassign(self, stmt: ast.AugAssign) -> None:
        value = self._eval(stmt.value)
        if not isinstance(stmt.target, ast.Name):
            return
        current = self.env.get(stmt.target.id)
        if isinstance(current, AbstractArray):
            if isinstance(stmt.op, ast.MatMult):
                self.env[stmt.target.id] = None
                return
            # In-place ops keep the target's shape and dtype, but the
            # operand must still broadcast *into* the target.
            if (
                isinstance(value, AbstractArray)
                and current.shape is not None
                and value.shape is not None
                and len(value.shape) <= len(current.shape)
            ):
                offset = len(current.shape) - len(value.shape)
                for axis, vdim in enumerate(value.shape):
                    tdim = current.shape[axis + offset]
                    if _dims_conflict(tdim, vdim) and vdim != 1:
                        self._finding(
                            stmt,
                            "shape-mismatch",
                            (
                                f"in-place operand of shape {_fmt_shape(value.shape)} "
                                f"cannot broadcast into '{stmt.target.id}' of shape "
                                f"{_fmt_shape(current.shape)} (axis {axis + offset}: "
                                f"{tdim} vs {vdim})"
                            ),
                            "reshape or transpose the operand to match the target",
                            self._op_trace(
                                stmt,
                                f"in-place update of '{stmt.target.id}' "
                                f"{_fmt_value(current)} with {_fmt_value(value)}",
                                current,
                                value,
                            ),
                        )
                        break
        elif current is None and stmt.target.id in self.env:
            return
        else:
            _ = value

    def _assign(
        self, target: ast.expr, value: Value, conditional: bool, stmt: ast.stmt
    ) -> None:
        if isinstance(target, ast.Name):
            name = target.id
            if conditional and name in self.env:
                old = self.env[name]
                if isinstance(old, AbstractArray) and isinstance(value, AbstractArray):
                    value = _join_arrays(old, value)
                elif old != value:
                    value = None
            if isinstance(value, AbstractArray) and value.shape is not None:
                last_line = value.prov[-1].line if value.prov else -1
                if last_line != stmt.lineno:
                    frame = TraceFrame(
                        path=self.path,
                        line=stmt.lineno,
                        function=self.qualname,
                        note=f"'{name}' assigned shape {_fmt_value(value)}",
                    )
                    value = AbstractArray(
                        value.shape, value.dtype, _merge_prov(value.prov, (frame,))
                    )
            self.env[name] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            items: Sequence[Value]
            if isinstance(value, _TupleVal) and len(value.items) == len(target.elts):
                items = value.items
            else:
                items = [None] * len(target.elts)
            for elt, item in zip(target.elts, items):
                if isinstance(elt, ast.Starred):
                    elt = elt.value
                    item = None
                self._assign(elt, item, conditional, stmt)
        elif isinstance(target, ast.Subscript):
            self._eval(target.value)
            self._eval_index_operands(target)
        # attribute targets (self.x = ...) are not tracked

    def _iter_element(self, iterable: Value) -> Value:
        if isinstance(iterable, AbstractArray) and iterable.shape:
            return AbstractArray(iterable.shape[1:], iterable.dtype, iterable.prov)
        if isinstance(iterable, _TupleVal) and iterable.items:
            joined: Value = iterable.items[0]
            for item in iterable.items[1:]:
                if isinstance(joined, AbstractArray) and isinstance(item, AbstractArray):
                    joined = _join_arrays(joined, item)
                elif joined != item:
                    return None
            return joined
        return None

    # -- expressions ---------------------------------------------------
    def _eval(self, node: Optional[ast.expr]) -> Value:
        if node is None:
            return None
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return None
            if isinstance(node.value, int):
                return _DimVal(node.value)
            if isinstance(node.value, float):
                return _ScalarVal()
            return None
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node)
        if isinstance(node, ast.UnaryOp):
            return self._eval_unaryop(node)
        if isinstance(node, ast.Compare):
            return self._eval_compare(node)
        if isinstance(node, ast.BoolOp):
            values = [self._eval(v) for v in node.values]
            arrays = [v for v in values if isinstance(v, AbstractArray)]
            if len(arrays) == len(values) and arrays:
                joined = arrays[0]
                for other in arrays[1:]:
                    joined = _join_arrays(joined, other)
                return joined
            return None
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node)
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            a, b = self._eval(node.body), self._eval(node.orelse)
            if isinstance(a, AbstractArray) and isinstance(b, AbstractArray):
                return _join_arrays(a, b)
            return a if a == b else None
        if isinstance(node, (ast.Tuple, ast.List)):
            items: Tuple[Value, ...] = ()
            for elt in node.elts:
                if isinstance(elt, ast.Starred):
                    self._eval(elt.value)
                    return None
                items += (self._eval(elt),)
            return _TupleVal(items)
        if isinstance(node, ast.NamedExpr):
            value = self._eval(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = value
            return value
        return None

    def _eval_attribute(self, node: ast.Attribute) -> Value:
        base = self._eval(node.value)
        if isinstance(base, AbstractArray):
            if node.attr == "T":
                shape = None if base.shape is None else base.shape[::-1]
                return AbstractArray(shape, base.dtype, base.prov)
            if node.attr == "shape" and base.shape is not None:
                return _TupleVal(tuple(_DimVal(d) for d in base.shape))
            if node.attr == "size":
                return _DimVal(None)
            if node.attr == "ndim":
                if base.shape is not None:
                    return _DimVal(len(base.shape))
                return _DimVal(None)
            if node.attr == "real" or node.attr == "imag":
                return AbstractArray(base.shape, base.dtype, base.prov)
        return None

    def _eval_unaryop(self, node: ast.UnaryOp) -> Value:
        value = self._eval(node.operand)
        if isinstance(node.op, ast.Not):
            return None
        if isinstance(node.op, ast.USub) and isinstance(value, _DimVal):
            if isinstance(value.dim, int):
                return _DimVal(-value.dim)
            return _DimVal(None)
        if isinstance(value, (AbstractArray, _DimVal, _ScalarVal)):
            return value
        return None

    def _eval_compare(self, node: ast.Compare) -> Value:
        operands = [self._eval(node.left)]
        operands.extend(self._eval(c) for c in node.comparators)
        arrays = [v for v in operands if isinstance(v, AbstractArray)]
        if not arrays:
            return None
        result = arrays[0]
        for other in arrays[1:]:
            folded = self._broadcast_op(node, result, other, opname="comparison")
            if isinstance(folded, AbstractArray):
                result = folded
        return AbstractArray(result.shape, "bool", result.prov)

    def _dim_arith(self, op: ast.operator, a: _DimVal, b: _DimVal) -> Value:
        if isinstance(a.dim, int) and isinstance(b.dim, int):
            try:
                if isinstance(op, ast.Add):
                    return _DimVal(a.dim + b.dim)
                if isinstance(op, ast.Sub):
                    return _DimVal(a.dim - b.dim)
                if isinstance(op, ast.Mult):
                    return _DimVal(a.dim * b.dim)
                if isinstance(op, ast.FloorDiv):
                    return _DimVal(a.dim // b.dim)
            except (ZeroDivisionError, OverflowError):
                return _DimVal(None)
        if isinstance(op, ast.Mult) and 1 in (a.dim, b.dim):
            return _DimVal(b.dim if a.dim == 1 else a.dim)
        return _DimVal(None)

    def _eval_binop(self, node: ast.BinOp) -> Value:
        a = self._eval(node.left)
        b = self._eval(node.right)
        if isinstance(node.op, ast.MatMult):
            return self._matmul(node, a, b)
        if isinstance(a, _DimVal) and isinstance(b, _DimVal):
            if isinstance(node.op, ast.Div):
                return _ScalarVal()
            return self._dim_arith(node.op, a, b)
        if isinstance(a, AbstractArray) or isinstance(b, AbstractArray):
            opname = type(node.op).__name__.lower()
            true_div = isinstance(node.op, ast.Div)
            return self._broadcast_op(node, a, b, opname=opname, true_div=true_div)
        return None

    def _broadcast_op(
        self,
        node: ast.AST,
        a: Value,
        b: Value,
        opname: str = "elementwise op",
        true_div: bool = False,
    ) -> Value:
        if isinstance(a, AbstractArray) and isinstance(b, AbstractArray):
            return self._broadcast_arrays(node, a, b, opname, true_div)
        array = a if isinstance(a, AbstractArray) else b
        other = b if array is a else a
        if not isinstance(array, AbstractArray):
            return None
        if isinstance(other, (_DimVal, _ScalarVal)):
            # NEP 50: Python scalars are weak — the array dtype wins,
            # except bool/int arrays hit by a float scalar (or ints by
            # true division) which become float64.
            dtype = array.dtype
            if isinstance(other, _ScalarVal) or true_div:
                if dtype in _INTEGRAL:
                    dtype = "float64"
                elif dtype not in ("float32", "float64"):
                    dtype = DT_UNKNOWN if dtype == DT_UNKNOWN else dtype
            elif dtype == "bool":
                dtype = "int"
            return AbstractArray(array.shape, dtype, array.prov)
        # Unknown operand: could be an array of any shape/dtype.
        dtype = "float64" if array.dtype == "float64" else DT_UNKNOWN
        return AbstractArray(None, dtype, array.prov)

    def _broadcast_arrays(
        self,
        node: ast.AST,
        a: AbstractArray,
        b: AbstractArray,
        opname: str,
        true_div: bool,
    ) -> AbstractArray:
        shape: Shape = None
        if a.shape is not None and b.shape is not None:
            rank = max(len(a.shape), len(b.shape))
            sa = (None,) * (rank - len(a.shape)) + a.shape
            sb = (None,) * (rank - len(b.shape)) + b.shape
            # Missing leading dims broadcast as 1s, so padded dims take
            # the other side's size; only real dims can conflict.
            pad_a, pad_b = rank - len(a.shape), rank - len(b.shape)
            out: Tuple[Dim, ...] = ()
            for axis in range(rank):
                da = sa[axis] if axis >= pad_a else 1
                db = sb[axis] if axis >= pad_b else 1
                if _broadcast_conflict(da, db):
                    self._finding(
                        node,
                        "shape-mismatch",
                        (
                            f"cannot broadcast {_fmt_shape(a.shape)} with "
                            f"{_fmt_shape(b.shape)}: axis {axis} is {da} vs {db}"
                        ),
                        "transpose/reshape one operand so the dims line up",
                        self._op_trace(
                            node,
                            f"{opname} of {_fmt_value(a)} and {_fmt_value(b)}",
                            a,
                            b,
                        ),
                    )
                    break
                out += (_broadcast_dim(da, db),)
            else:
                shape = out
        dtype = _join_dtype(a.dtype, b.dtype)
        if true_div and dtype in _INTEGRAL:
            dtype = "float64"
        if self.hot and _hot_upcast(a.dtype, b.dtype):
            self._hot_finding(node, opname, a, b)
        return AbstractArray(shape, dtype, _merge_prov(a.prov, b.prov))

    def _hot_finding(
        self, node: ast.AST, opname: str, a: AbstractArray, b: AbstractArray
    ) -> None:
        f64 = a if a.dtype in _UPCASTS else b
        f32 = b if f64 is a else a
        f32_desc = (
            f"dtype of parameter '{f32.dtype[1:]}'"
            if f32.dtype.startswith("~")
            else f32.dtype
        )
        self._finding(
            node,
            "dtype-policy-violation",
            (
                f"@hot_path {opname} mixes a provably {f64.dtype} operand with "
                f"a {f32_desc} one — float32 cannot survive this chain"
            ),
            "allocate/cast with the working dtype (e.g. dtype=x.dtype)",
            self._op_trace(
                node,
                f"{opname} joins {_fmt_value(a)} and {_fmt_value(b)} to float64",
                a,
                b,
            ),
            severity="warning",
        )

    def _matmul(self, node: ast.AST, a: Value, b: Value) -> Value:
        if not isinstance(a, AbstractArray) or not isinstance(b, AbstractArray):
            array = a if isinstance(a, AbstractArray) else b
            if isinstance(array, AbstractArray):
                return AbstractArray(None, DT_UNKNOWN, array.prov)
            return None
        shape: Shape = None
        if a.shape is not None and b.shape is not None:
            ra, rb = len(a.shape), len(b.shape)
            if ra == 0 or rb == 0:
                self._finding(
                    node,
                    "rank-mismatch",
                    "matmul operand is 0-d (matmul needs at least rank 1)",
                    "use * for scalar scaling",
                    self._op_trace(
                        node, f"matmul of {_fmt_value(a)} and {_fmt_value(b)}", a, b
                    ),
                )
                return AbstractArray(None, DT_UNKNOWN, _merge_prov(a.prov, b.prov))
            inner_a = a.shape[-1]
            inner_b = b.shape[-2] if rb >= 2 else b.shape[0]
            if _dims_conflict(inner_a, inner_b):
                self._finding(
                    node,
                    "shape-mismatch",
                    (
                        f"matmul inner dims disagree: {_fmt_shape(a.shape)} @ "
                        f"{_fmt_shape(b.shape)} contracts {inner_a} against {inner_b}"
                    ),
                    "transpose an operand (or reorder the product)",
                    self._op_trace(
                        node, f"matmul of {_fmt_value(a)} and {_fmt_value(b)}", a, b
                    ),
                )
            elif ra <= 2 and rb <= 2:
                out: Tuple[Dim, ...] = ()
                if ra == 2:
                    out += (a.shape[0],)
                if rb == 2:
                    out += (b.shape[1],)
                shape = out
        dtype = _join_dtype(a.dtype, b.dtype)
        if self.hot and _hot_upcast(a.dtype, b.dtype):
            self._hot_finding(node, "matmul", a, b)
        prov = _merge_prov(a.prov, b.prov)
        if shape is not None:
            frame = TraceFrame(
                path=self.path,
                line=getattr(node, "lineno", self.info.line),
                function=self.qualname,
                note=f"matmul of {_fmt_shape(a.shape)} @ {_fmt_shape(b.shape)} "
                f"has shape {_fmt_shape(shape)}",
            )
            prov = _merge_prov(prov, (frame,))
        return AbstractArray(shape, dtype, prov)

    def _solve(self, node: ast.AST, a: Value, b: Value) -> Value:
        if not isinstance(a, AbstractArray) or not isinstance(b, AbstractArray):
            return None
        if a.shape is not None and len(a.shape) >= 2:
            n1, n2 = a.shape[-2], a.shape[-1]
            if _dims_conflict(n1, n2):
                self._finding(
                    node,
                    "shape-mismatch",
                    (
                        f"np.linalg.solve coefficient matrix must be square, "
                        f"got {_fmt_shape(a.shape)}"
                    ),
                    "check the Gram/normal-equation operand",
                    self._op_trace(
                        node, f"solve of {_fmt_value(a)} against {_fmt_value(b)}", a, b
                    ),
                )
            elif b.shape is not None and len(b.shape) >= 1:
                rows = b.shape[-2] if len(b.shape) >= 2 else b.shape[-1]
                n = n1 if n1 is not None else n2
                if _dims_conflict(n, rows):
                    self._finding(
                        node,
                        "shape-mismatch",
                        (
                            f"np.linalg.solve rows disagree: coefficient "
                            f"{_fmt_shape(a.shape)} vs rhs {_fmt_shape(b.shape)} "
                            f"({n} vs {rows})"
                        ),
                        "transpose the rhs (or fix the Gram operand)",
                        self._op_trace(
                            node,
                            f"solve of {_fmt_value(a)} against {_fmt_value(b)}",
                            a,
                            b,
                        ),
                    )
        elif a.shape is not None and len(a.shape) < 2:
            self._finding(
                node,
                "rank-mismatch",
                (
                    f"np.linalg.solve coefficient matrix must be at least 2-D, "
                    f"got {_fmt_shape(a.shape)}"
                ),
                "pass the full matrix, not a row/column",
                self._op_trace(
                    node, f"solve of {_fmt_value(a)} against {_fmt_value(b)}", a, b
                ),
            )
        dtype = _join_dtype(a.dtype, b.dtype)
        if dtype in _INTEGRAL:
            dtype = "float64"
        if self.hot and _hot_upcast(a.dtype, b.dtype):
            self._hot_finding(node, "solve", a, b)
        return AbstractArray(b.shape, dtype, _merge_prov(a.prov, b.prov))

    # -- calls ---------------------------------------------------------
    def _eval_call(self, node: ast.Call) -> Value:
        starred = any(isinstance(a, ast.Starred) for a in node.args) or any(
            kw.arg is None for kw in node.keywords
        )
        argvals: List[Value] = []
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                self._eval(arg.value)
                argvals.append(None)
            else:
                argvals.append(self._eval(arg))
        kwnodes: Dict[str, ast.expr] = {}
        kwvals: Dict[str, Value] = {}
        for kw in node.keywords:
            if kw.arg is None:
                self._eval(kw.value)
            else:
                kwnodes[kw.arg] = kw.value
                kwvals[kw.arg] = self._eval(kw.value)

        chain = attribute_chain(node.func)
        numpy_fn = self._numpy_name(chain)
        if numpy_fn is not None:
            result = self._numpy_call(node, numpy_fn, argvals, kwvals, kwnodes)
            if result is not _NOT_HANDLED:
                return result  # type: ignore[return-value]

        if isinstance(node.func, ast.Attribute):
            base = self._eval(node.func.value)
            if isinstance(base, AbstractArray):
                result = self._array_method(
                    node, base, node.func.attr, argvals, kwvals, kwnodes
                )
                if result is not _NOT_HANDLED:
                    return result  # type: ignore[return-value]

        if chain == ["len"] and len(argvals) == 1:
            value = argvals[0]
            if isinstance(value, AbstractArray) and value.shape:
                return _DimVal(value.shape[0])
            if isinstance(value, _TupleVal):
                return _DimVal(len(value.items))
            return _DimVal(None)
        if chain == ["float"]:
            return _ScalarVal()
        if chain == ["int"]:
            return _DimVal(None)
        if chain in (["tuple"], ["list"]) and len(argvals) == 1:
            value = argvals[0]
            if isinstance(value, _TupleVal):
                return value
            return None

        callee = self.program.resolve_call(node, self.info.scope, self.info.module)
        if callee is not None and callee in self.program.functions and not starred:
            bindings, dtype_map = self._check_contract(node, callee, argvals, kwvals)
            return self._instantiate_summary(node, callee, bindings, dtype_map)
        return None

    def _numpy_name(self, chain: List[str]) -> Optional[str]:
        if len(chain) < 2:
            return None
        bind_scope = self.info.scope.lookup_scope(chain[0])
        if bind_scope is not None and not bind_scope.is_module:
            return None  # a local/param shadows the import
        target = self.info.module.imports.get(chain[0])
        if target is None or target[1] is not None or target[0] != "numpy":
            return None
        return ".".join(chain[1:])

    def _shape_from_arg(self, value: Value) -> Shape:
        if isinstance(value, _TupleVal):
            return value.dims
        if isinstance(value, _DimVal):
            return (value.dim,)
        return None

    def _eval_dtype(self, node: Optional[ast.expr]) -> str:
        if node is None:
            return DT_UNKNOWN
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return _DTYPE_NAMES.get(node.value, DT_UNKNOWN)
        chain = attribute_chain(node)
        if chain:
            if chain[-1] == "dtype":
                base = self._eval(node.value) if isinstance(node, ast.Attribute) else None
                if isinstance(base, AbstractArray):
                    return base.dtype
                return DT_UNKNOWN
            if chain == ["float"]:
                return "float64"
            if chain == ["bool"] or chain == ["int"]:
                return _DTYPE_NAMES[chain[0]]
            return _DTYPE_NAMES.get(chain[-1], DT_UNKNOWN)
        return DT_UNKNOWN

    def _ctor(
        self, node: ast.AST, shape: Shape, dtype: str, what: str
    ) -> AbstractArray:
        prov: Tuple[TraceFrame, ...] = ()
        if shape is not None or dtype != DT_UNKNOWN:
            value = AbstractArray(shape, dtype)
            prov = (
                TraceFrame(
                    path=self.path,
                    line=getattr(node, "lineno", self.info.line),
                    function=self.qualname,
                    note=f"{what} creates {_fmt_value(value)}",
                ),
            )
        return AbstractArray(shape, dtype, prov)

    def _literal_array(self, value: Value) -> Optional[AbstractArray]:
        """``np.array([...])`` over tracked scalar items."""
        if not isinstance(value, _TupleVal):
            return None
        n = len(value.items)
        if all(isinstance(item, _DimVal) for item in value.items):
            return AbstractArray((n,), "int64")
        if all(isinstance(item, (_DimVal, _ScalarVal)) for item in value.items):
            return AbstractArray((n,), "float64")
        rows = [item for item in value.items if isinstance(item, _TupleVal)]
        if n and len(rows) == n:
            inner = {len(row.items) for row in rows}
            flat = [item for row in rows for item in row.items]
            if len(inner) == 1 and all(
                isinstance(item, (_DimVal, _ScalarVal)) for item in flat
            ):
                dtype = (
                    "int64"
                    if all(isinstance(item, _DimVal) for item in flat)
                    else "float64"
                )
                return AbstractArray((n, inner.pop()), dtype)
        return None

    def _numpy_call(
        self,
        node: ast.Call,
        fname: str,
        argvals: List[Value],
        kwvals: Dict[str, Value],
        kwnodes: Dict[str, ast.expr],
    ) -> object:
        dtype_kw = self._eval_dtype(kwnodes.get("dtype")) if "dtype" in kwnodes else None

        if fname in ("zeros", "ones", "empty"):
            shape = self._shape_from_arg(argvals[0]) if argvals else None
            dtype = dtype_kw if dtype_kw is not None else "float64"
            return self._ctor(node, shape, dtype, f"np.{fname}(...)")
        if fname == "full":
            shape = self._shape_from_arg(argvals[0]) if argvals else None
            if dtype_kw is not None:
                dtype = dtype_kw
            elif len(argvals) > 1 and isinstance(argvals[1], _DimVal):
                dtype = "int"
            elif len(argvals) > 1 and isinstance(argvals[1], _ScalarVal):
                dtype = "float64"
            else:
                dtype = DT_UNKNOWN
            return self._ctor(node, shape, dtype, "np.full(...)")
        if fname in ("eye", "identity"):
            n = argvals[0].dim if argvals and isinstance(argvals[0], _DimVal) else None
            m = n
            if fname == "eye" and len(argvals) > 1 and isinstance(argvals[1], _DimVal):
                m = argvals[1].dim
            dtype = dtype_kw if dtype_kw is not None else "float64"
            return self._ctor(node, (n, m), dtype, f"np.{fname}(...)")
        if fname == "linspace":
            dtype = dtype_kw if dtype_kw is not None else "float64"
            n = (
                argvals[2].dim
                if len(argvals) > 2 and isinstance(argvals[2], _DimVal)
                else None
            )
            return self._ctor(node, (n,), dtype, "np.linspace(...)")
        if fname == "arange":
            if dtype_kw is not None:
                dtype = dtype_kw
            elif any(isinstance(v, _ScalarVal) for v in argvals):
                dtype = "float64"
            elif argvals and all(isinstance(v, _DimVal) for v in argvals):
                dtype = "int64"
            else:
                dtype = DT_UNKNOWN
            dim = (
                argvals[0].dim
                if len(argvals) == 1 and isinstance(argvals[0], _DimVal)
                else None
            )
            return self._ctor(node, (dim,), dtype, "np.arange(...)")
        if fname in ("zeros_like", "ones_like", "empty_like", "full_like"):
            base = argvals[0] if argvals else None
            shape = base.shape if isinstance(base, AbstractArray) else None
            if dtype_kw is not None:
                dtype = dtype_kw
            elif isinstance(base, AbstractArray):
                dtype = base.dtype
            else:
                dtype = DT_UNKNOWN
            return self._ctor(node, shape, dtype, f"np.{fname}(...)")
        if fname in ("array", "asarray", "ascontiguousarray", "asfortranarray"):
            base = argvals[0] if argvals else None
            if isinstance(base, AbstractArray):
                dtype = dtype_kw if dtype_kw is not None else base.dtype
                return AbstractArray(base.shape, dtype, base.prov)
            literal = self._literal_array(base)
            if literal is not None:
                dtype = dtype_kw if dtype_kw is not None else literal.dtype
                return self._ctor(node, literal.shape, dtype, f"np.{fname}([...])")
            if isinstance(base, (_DimVal, _ScalarVal)):
                dtype = dtype_kw if dtype_kw is not None else (
                    "int64" if isinstance(base, _DimVal) else "float64"
                )
                return self._ctor(node, (), dtype, f"np.{fname}(...)")
            return AbstractArray(None, dtype_kw if dtype_kw is not None else DT_UNKNOWN)
        if fname in ("float32", "float64", "bool_", "int32", "int64", "intp"):
            base = argvals[0] if argvals else None
            dtype = _DTYPE_NAMES[fname]
            shape: Shape = ()
            prov: Tuple[TraceFrame, ...] = ()
            if isinstance(base, AbstractArray):
                shape, prov = base.shape, base.prov
            return AbstractArray(shape, dtype, prov)

        if fname in ("matmul", "dot"):
            if len(argvals) >= 2:
                return self._matmul(node, argvals[0], argvals[1])
            return None
        if fname == "linalg.solve":
            if len(argvals) >= 2:
                return self._solve(node, argvals[0], argvals[1])
            return None
        if fname in ("linalg.inv", "linalg.cholesky", "linalg.pinv"):
            base = argvals[0] if argvals else None
            if isinstance(base, AbstractArray):
                shape = base.shape
                if fname != "linalg.pinv" and shape is not None and len(shape) == 2:
                    if _dims_conflict(shape[0], shape[1]):
                        self._finding(
                            node,
                            "shape-mismatch",
                            f"np.{fname} needs a square matrix, got {_fmt_shape(shape)}",
                            "check the operand orientation",
                            self._op_trace(node, f"np.{fname} of {_fmt_value(base)}", base),
                        )
                        shape = None
                if fname == "linalg.pinv" and shape is not None and len(shape) == 2:
                    shape = shape[::-1]
                return AbstractArray(shape, base.dtype, base.prov)
            return None
        if fname == "linalg.norm":
            return self._reduction(node, argvals, kwvals, kwnodes, "norm")

        if fname == "where":
            if len(argvals) == 3:
                picked = self._broadcast_op(node, argvals[1], argvals[2], opname="where")
                cond = argvals[0]
                if isinstance(picked, AbstractArray) and isinstance(cond, AbstractArray):
                    merged = self._broadcast_op(node, picked, cond, opname="where")
                    if isinstance(merged, AbstractArray):
                        return AbstractArray(merged.shape, picked.dtype, picked.prov)
                return picked
            return None
        if fname == "clip":
            base = argvals[0] if argvals else None
            if isinstance(base, AbstractArray):
                return base
            return None
        if fname in _PASSTHROUGH_UNARY:
            base = argvals[0] if argvals else None
            if isinstance(base, AbstractArray):
                dtype = base.dtype
                if fname in ("ascontiguousarray", "asfortranarray") and dtype_kw is not None:
                    dtype = dtype_kw
                return AbstractArray(base.shape, dtype, base.prov)
            return None
        if fname in _FLOAT_UNARY:
            base = argvals[0] if argvals else None
            if isinstance(base, AbstractArray):
                dtype = base.dtype if base.dtype in ("float32", "float64") else (
                    "float64" if base.dtype in _INTEGRAL else DT_UNKNOWN
                )
                return AbstractArray(base.shape, dtype, base.prov)
            return None
        if fname in _BOOL_UNARY:
            base = argvals[0] if argvals else None
            if isinstance(base, AbstractArray):
                return AbstractArray(base.shape, "bool", base.prov)
            return None
        if fname in _BINARY_UFUNCS:
            if len(argvals) >= 2:
                true_div = fname in ("divide", "true_divide")
                result = self._broadcast_op(
                    node, argvals[0], argvals[1], opname=f"np.{fname}", true_div=true_div
                )
                if fname.startswith("logical_") and isinstance(result, AbstractArray):
                    return AbstractArray(result.shape, "bool", result.prov)
                return result
            return None
        if fname in _REDUCTIONS or fname in ("cumsum", "cumprod"):
            return self._reduction(node, argvals, kwvals, kwnodes, fname)
        if fname in ("stack", "concatenate", "vstack", "hstack", "column_stack"):
            return self._stack(node, fname, argvals, kwvals, kwnodes)
        if fname in ("reshape",):
            base = argvals[0] if argvals else None
            if isinstance(base, AbstractArray) and len(argvals) > 1:
                return self._reshape(node, base, argvals[1:])
            return None
        if fname == "transpose":
            base = argvals[0] if argvals else None
            if isinstance(base, AbstractArray):
                if len(argvals) == 1 and not kwvals:
                    shape = None if base.shape is None else base.shape[::-1]
                    return AbstractArray(shape, base.dtype, base.prov)
                return AbstractArray(None, base.dtype, base.prov)
            return None
        if fname == "expand_dims":
            base = argvals[0] if argvals else None
            axis = argvals[1] if len(argvals) > 1 else kwvals.get("axis")
            if (
                isinstance(base, AbstractArray)
                and base.shape is not None
                and isinstance(axis, _DimVal)
                and isinstance(axis.dim, int)
            ):
                ax = axis.dim
                rank = len(base.shape) + 1
                if -rank <= ax < rank:
                    ax %= rank
                    shape = base.shape[:ax] + (1,) + base.shape[ax:]
                    return AbstractArray(shape, base.dtype, base.prov)
            if isinstance(base, AbstractArray):
                return AbstractArray(None, base.dtype, base.prov)
            return None
        if fname == "ravel":
            base = argvals[0] if argvals else None
            if isinstance(base, AbstractArray):
                return AbstractArray((self._size_of(base),), base.dtype, base.prov)
            return None
        if fname == "outer":
            if len(argvals) >= 2:
                a, b = argvals[0], argvals[1]
                if isinstance(a, AbstractArray) and isinstance(b, AbstractArray):
                    da = a.shape[0] if a.shape is not None and len(a.shape) == 1 else None
                    db = b.shape[0] if b.shape is not None and len(b.shape) == 1 else None
                    return AbstractArray((da, db), _join_dtype(a.dtype, b.dtype))
            return None
        if fname in ("flatnonzero", "unique"):
            return AbstractArray((None,), "int" if fname == "flatnonzero" else DT_UNKNOWN)
        if fname == "bincount":
            return AbstractArray((None,), "float64" if "weights" in kwvals else "int")
        if fname == "searchsorted":
            target = argvals[1] if len(argvals) > 1 else None
            shape = target.shape if isinstance(target, AbstractArray) else None
            return AbstractArray(shape, "int")
        if fname == "diff":
            base = argvals[0] if argvals else None
            if isinstance(base, AbstractArray) and base.shape is not None:
                shape = base.shape[:-1] + (None,)
                return AbstractArray(shape, base.dtype, base.prov)
            return None
        if fname == "interp":
            base = argvals[0] if argvals else None
            shape = base.shape if isinstance(base, AbstractArray) else None
            return AbstractArray(shape, "float64")
        if fname == "digitize":
            base = argvals[0] if argvals else None
            shape = base.shape if isinstance(base, AbstractArray) else None
            return AbstractArray(shape, "int")
        if fname == "argsort":
            base = argvals[0] if argvals else None
            shape = base.shape if isinstance(base, AbstractArray) else None
            return AbstractArray(shape, "int")
        if fname in ("atleast_1d", "atleast_2d", "squeeze", "tile", "repeat", "pad"):
            base = argvals[0] if argvals else None
            dtype = base.dtype if isinstance(base, AbstractArray) else DT_UNKNOWN
            return AbstractArray(None, dtype)
        return _NOT_HANDLED

    def _size_of(self, array: AbstractArray) -> Dim:
        if array.shape is None:
            return None
        if len(array.shape) == 1:
            return array.shape[0]
        total = 1
        for dim in array.shape:
            if not isinstance(dim, int):
                return None
            total *= dim
        return total

    def _reshape(
        self, node: ast.AST, base: AbstractArray, shape_args: Sequence[Value]
    ) -> AbstractArray:
        dims: Tuple[Dim, ...] = ()
        if len(shape_args) == 1 and isinstance(shape_args[0], _TupleVal):
            tup = shape_args[0].dims
            if tup is None:
                return AbstractArray(None, base.dtype, base.prov)
            dims = tup
        else:
            for value in shape_args:
                if isinstance(value, _DimVal):
                    dims += (value.dim,)
                else:
                    return AbstractArray(None, base.dtype, base.prov)
        dims = tuple(None if isinstance(d, int) and d < 0 else d for d in dims)
        frame = TraceFrame(
            path=self.path,
            line=getattr(node, "lineno", self.info.line),
            function=self.qualname,
            note=f"reshape of {_fmt_shape(base.shape)} to {_fmt_shape(dims)}",
        )
        return AbstractArray(dims, base.dtype, _merge_prov(base.prov, (frame,)))

    def _reduction(
        self,
        node: ast.AST,
        argvals: List[Value],
        kwvals: Dict[str, Value],
        kwnodes: Dict[str, ast.expr],
        fname: str,
    ) -> Value:
        base = argvals[0] if argvals else None
        if not isinstance(base, AbstractArray):
            return None
        axis = kwvals.get("axis")
        if axis is None and len(argvals) > 1:
            axis = argvals[1]
        keepdims = False
        kd = kwnodes.get("keepdims")
        if isinstance(kd, ast.Constant) and kd.value is True:
            keepdims = True

        if fname in _FLOAT_REDUCTIONS or fname == "norm":
            if base.dtype in ("float32", "float64"):
                dtype = base.dtype
            elif base.dtype in _INTEGRAL:
                dtype = "float64"
            else:
                dtype = DT_UNKNOWN
        elif fname in _INT_REDUCTIONS:
            dtype = "int"
        elif fname in _BOOL_REDUCTIONS:
            dtype = "bool"
        else:  # sum/min/max/prod/cumsum keep the input dtype (bool sums to int)
            dtype = "int" if base.dtype == "bool" else base.dtype

        if fname in ("cumsum", "cumprod"):
            if axis is None and "axis" not in kwnodes:
                return AbstractArray((self._size_of(base),), dtype, base.prov)
            return AbstractArray(base.shape, dtype, base.prov)

        if "axis" not in kwnodes and (len(argvals) <= 1 or fname == "norm"):
            shape: Shape = ()
            return AbstractArray(shape, dtype, base.prov)
        if base.shape is None or not isinstance(axis, _DimVal) or not isinstance(
            axis.dim, int
        ):
            return AbstractArray(None, dtype, base.prov)
        rank = len(base.shape)
        ax = axis.dim
        if not -rank <= ax < rank:
            return AbstractArray(None, dtype, base.prov)
        ax %= rank
        if keepdims:
            shape = base.shape[:ax] + (1,) + base.shape[ax + 1 :]
        else:
            shape = base.shape[:ax] + base.shape[ax + 1 :]
        return AbstractArray(shape, dtype, base.prov)

    def _stack(
        self,
        node: ast.AST,
        fname: str,
        argvals: List[Value],
        kwvals: Dict[str, Value],
        kwnodes: Dict[str, ast.expr],
    ) -> Value:
        seq = argvals[0] if argvals else None
        if not isinstance(seq, _TupleVal) or not seq.items:
            return AbstractArray(None, DT_UNKNOWN)
        items = seq.items
        if not all(isinstance(item, AbstractArray) for item in items):
            return AbstractArray(None, DT_UNKNOWN)
        arrays = [item for item in items if isinstance(item, AbstractArray)]
        dtype = arrays[0].dtype
        for other in arrays[1:]:
            dtype = _join_dtype(dtype, other.dtype)
        prov = _merge_prov(*(a.prov for a in arrays))
        if fname in ("vstack", "hstack", "column_stack"):
            return AbstractArray(None, dtype, prov)

        axis = kwvals.get("axis")
        if axis is None and len(argvals) > 1:
            axis = argvals[1]
        ax = axis.dim if isinstance(axis, _DimVal) and isinstance(axis.dim, int) else 0
        shapes = [a.shape for a in arrays]
        if any(s is None for s in shapes):
            return AbstractArray(None, dtype, prov)
        ranks = {len(s) for s in shapes if s is not None}
        if len(ranks) != 1:
            self._finding(
                node,
                "rank-mismatch",
                f"np.{fname} operands have provably different ranks: "
                + ", ".join(_fmt_shape(s) for s in shapes),
                "stack arrays of equal rank",
                self._op_trace(node, f"np.{fname} of mixed-rank operands", *arrays),
            )
            return AbstractArray(None, dtype, prov)
        rank = ranks.pop()
        if not -rank - (1 if fname == "stack" else 0) <= ax <= rank:
            return AbstractArray(None, dtype, prov)

        if fname == "stack":
            joined = shapes[0]
            for s in shapes[1:]:
                assert joined is not None and s is not None
                for axis_i, (da, db) in enumerate(zip(joined, s)):
                    if _dims_conflict(da, db):
                        self._finding(
                            node,
                            "shape-mismatch",
                            f"np.stack operands disagree on axis {axis_i}: "
                            + ", ".join(_fmt_shape(x) for x in shapes),
                            "stack arrays of identical shape",
                            self._op_trace(node, "np.stack of unequal shapes", *arrays),
                        )
                        return AbstractArray(None, dtype, prov)
                joined = _join_shape(joined, s)
            if joined is None:
                return AbstractArray(None, dtype, prov)
            ax %= rank + 1
            shape = joined[:ax] + (len(arrays),) + joined[ax:]
            return AbstractArray(shape, dtype, prov)

        # concatenate: dims must agree everywhere except the axis.
        ax %= rank
        out: List[Dim] = list(shapes[0] or ())
        total: Dim = out[ax] if out else None
        for s in shapes[1:]:
            assert s is not None
            for axis_i, (da, db) in enumerate(zip(out, s)):
                if axis_i == ax:
                    if isinstance(total, int) and isinstance(db, int):
                        total += db
                    else:
                        total = None
                    continue
                if _dims_conflict(da, db):
                    self._finding(
                        node,
                        "shape-mismatch",
                        f"np.concatenate operands disagree on axis {axis_i}: "
                        + ", ".join(_fmt_shape(x) for x in shapes),
                        "concatenate along the mismatched axis instead",
                        self._op_trace(node, "np.concatenate of unequal shapes", *arrays),
                    )
                    return AbstractArray(None, dtype, prov)
                if da != db:
                    out[axis_i] = None
        out[ax] = total
        return AbstractArray(tuple(out), dtype, prov)

    def _array_method(
        self,
        node: ast.Call,
        base: AbstractArray,
        method: str,
        argvals: List[Value],
        kwvals: Dict[str, Value],
        kwnodes: Dict[str, ast.expr],
    ) -> object:
        if method == "astype":
            dtype_node = node.args[0] if node.args else kwnodes.get("dtype")
            dtype = self._eval_dtype(dtype_node)
            prov = base.prov
            if dtype != DT_UNKNOWN:
                frame = TraceFrame(
                    path=self.path,
                    line=node.lineno,
                    function=self.qualname,
                    note=f".astype casts {_fmt_shape(base.shape)} to {dtype}",
                )
                prov = _merge_prov(prov, (frame,))
            return AbstractArray(base.shape, dtype, prov)
        if method == "reshape":
            return self._reshape(node, base, argvals)
        if method in ("transpose",):
            if not argvals and not kwvals:
                shape = None if base.shape is None else base.shape[::-1]
                return AbstractArray(shape, base.dtype, base.prov)
            return AbstractArray(None, base.dtype, base.prov)
        if method == "dot" and argvals:
            return self._matmul(node, base, argvals[0])
        if method in ("copy", "clip", "round", "conj", "fill", "view"):
            if method == "fill":
                return None
            return AbstractArray(base.shape, base.dtype, base.prov)
        if method in ("ravel", "flatten"):
            return AbstractArray((self._size_of(base),), base.dtype, base.prov)
        if method in _REDUCTIONS or method in ("cumsum", "cumprod"):
            return self._reduction(node, [base] + argvals, kwvals, kwnodes, method)
        if method == "item":
            return _ScalarVal()
        if method == "tolist":
            return None
        if method == "squeeze":
            return AbstractArray(None, base.dtype, base.prov)
        if method == "nonzero":
            return None
        if method == "sort":
            return None  # in-place, returns None
        if method == "argsort":
            return AbstractArray(base.shape, "int", base.prov)
        return _NOT_HANDLED

    # -- interprocedural: contracts and summaries ----------------------
    def _match_args(
        self, node: ast.Call, callee_info: FunctionInfo, argvals: List[Value],
        kwvals: Dict[str, Value],
    ) -> List[Tuple[str, Value]]:
        args = callee_info.node.args
        params = [a.arg for a in args.posonlyargs + args.args]
        if params and params[0] in ("self", "cls"):
            chain = attribute_chain(node.func)
            if len(chain) != 1 or chain[0] != params[0]:
                params = params[1:]  # bound call: receiver not in node.args
        matched = list(zip(params, argvals))
        kwonly = {a.arg for a in args.kwonlyargs}
        for name, value in kwvals.items():
            if name in kwonly or name in params:
                matched.append((name, value))
        return matched

    def _check_contract(
        self,
        node: ast.Call,
        callee: FunctionId,
        argvals: List[Value],
        kwvals: Dict[str, Value],
    ) -> Tuple[Dict[str, Dim], Dict[str, str]]:
        contract = self.checker.contracts.get(callee)
        callee_info = self.program.functions[callee]
        if contract is None:
            return {}, {}
        callee_tail = callee.qualname.rsplit(".", 1)[-1]
        bindings: Dict[str, Tuple[Dim, str, int]] = {}
        dtype_map: Dict[str, str] = {}
        for pname, value in self._match_args(node, callee_info, argvals, kwvals):
            if not isinstance(value, AbstractArray):
                continue
            dtype_map[pname] = value.dtype
            spec = contract.spec_of(pname)
            if spec is None:
                continue
            decl = TraceFrame(
                path=callee_info.module.path,
                line=contract.line,
                function=callee.qualname,
                note=f"@shapes declares '{pname}: {spec.render()}'",
            )
            if value.shape is not None:
                if len(value.shape) != spec.rank:
                    self._finding(
                        node,
                        "rank-mismatch",
                        (
                            f"argument '{pname}' of '{callee_tail}' is provably "
                            f"{len(value.shape)}-D but spec '{spec.render()}' "
                            f"requires {spec.rank}-D"
                        ),
                        "pass the full-rank array (or fix the contract)",
                        (decl,) + self._call_trace(node, pname, value),
                    )
                    continue
                for axis, (sdim, adim) in enumerate(zip(spec.dims, value.shape)):
                    if sdim == "*" or adim is None:
                        continue
                    if isinstance(sdim, int):
                        if adim != sdim:
                            self._finding(
                                node,
                                "static-contract-violation",
                                (
                                    f"axis {axis} of '{pname}' must have size "
                                    f"{sdim} but is provably {adim} "
                                    f"(contract of '{callee_tail}')"
                                ),
                                "fix the argument (or relax the exact size)",
                                (decl,) + self._call_trace(node, pname, value),
                            )
                    else:
                        prev = bindings.get(sdim)
                        if prev is None:
                            bindings[sdim] = (adim, pname, axis)
                        elif prev[0] != adim:
                            self._finding(
                                node,
                                "static-contract-violation",
                                (
                                    f"dim '{sdim}' of '{callee_tail}' is bound to "
                                    f"{prev[0]} by argument '{prev[1]}' but "
                                    f"argument '{pname}' axis {axis} is provably "
                                    f"{adim}"
                                ),
                                "make the arguments agree on the shared dim",
                                (decl,) + self._call_trace(node, pname, value),
                            )
            if spec.kinds:
                bad = (
                    value.dtype in ("float32", "float64") and "f" not in spec.kinds
                ) or (value.dtype == "bool" and "b" not in spec.kinds)
                if bad:
                    self._finding(
                        node,
                        "static-contract-violation",
                        (
                            f"argument '{pname}' of '{callee_tail}' is provably "
                            f"{value.dtype} which is outside the "
                            f"'{spec.family}' dtype family"
                        ),
                        "cast the argument (e.g. .astype(bool)) or fix the producer",
                        (decl,) + self._call_trace(node, pname, value),
                    )
        return {sym: dim for sym, (dim, _, _) in bindings.items()}, dtype_map

    def _call_trace(
        self, node: ast.Call, pname: str, value: AbstractArray
    ) -> Tuple[TraceFrame, ...]:
        offender = TraceFrame(
            path=self.path,
            line=node.lineno,
            function=self.qualname,
            note=f"passes '{pname}' with inferred {_fmt_value(value)}",
        )
        return _merge_prov(value.prov, (offender,))

    def _instantiate_summary(
        self,
        node: ast.Call,
        callee: FunctionId,
        bindings: Dict[str, Dim],
        dtype_map: Dict[str, str],
    ) -> Value:
        summary = self.checker.summaries.get(callee)
        if summary is None:
            return None
        shape: Shape = None
        if summary.shape is not None:
            shape = tuple(
                bindings.get(d) if isinstance(d, str) else d for d in summary.shape
            )
        dtype = summary.dtype
        if dtype.startswith("~"):
            dtype = dtype_map.get(dtype[1:], DT_UNKNOWN)
        prov = summary.prov
        if shape is not None or dtype != DT_UNKNOWN:
            frame = TraceFrame(
                path=self.path,
                line=node.lineno,
                function=self.qualname,
                note=(
                    f"result of '{callee.qualname.rsplit('.', 1)[-1]}(...)' has "
                    f"inferred {_fmt_value(AbstractArray(shape, dtype))}"
                ),
            )
            prov = _merge_prov(prov, (frame,))
        return AbstractArray(shape, dtype, prov)

    # -- indexing ------------------------------------------------------
    def _eval_index_operands(self, node: ast.Subscript) -> None:
        """Evaluate index expressions for their side findings only."""
        idx = node.slice
        elts = idx.elts if isinstance(idx, ast.Tuple) else [idx]
        for elt in elts:
            if isinstance(elt, ast.Slice):
                self._eval(elt.lower)
                self._eval(elt.upper)
                self._eval(elt.step)
            else:
                self._eval(elt)

    def _eval_subscript(self, node: ast.Subscript) -> Value:
        base = self._eval(node.value)
        idx = node.slice
        if isinstance(base, _TupleVal):
            if isinstance(idx, ast.Constant) and isinstance(idx.value, int):
                try:
                    return base.items[idx.value]
                except IndexError:
                    return None
            if isinstance(idx, ast.UnaryOp) and isinstance(idx.op, ast.USub):
                inner = idx.operand
                if isinstance(inner, ast.Constant) and isinstance(inner.value, int):
                    try:
                        return base.items[-inner.value]
                    except IndexError:
                        return None
            if isinstance(idx, ast.Slice):
                lo = idx.lower.value if isinstance(idx.lower, ast.Constant) else None
                hi = idx.upper.value if isinstance(idx.upper, ast.Constant) else None
                if idx.step is None and (lo is None or isinstance(lo, int)) and (
                    hi is None or isinstance(hi, int)
                ):
                    return _TupleVal(base.items[lo:hi])
            self._eval_index_operands(node)
            return None
        if not isinstance(base, AbstractArray):
            self._eval_index_operands(node)
            return None
        if base.shape is None:
            self._eval_index_operands(node)
            return AbstractArray(None, base.dtype, base.prov)

        elts: List[ast.expr] = idx.elts if isinstance(idx, ast.Tuple) else [idx]
        out: List[Dim] = []
        consumed = 0
        rank = len(base.shape)
        fancy = 0
        for pos, elt in enumerate(elts):
            if isinstance(elt, ast.Constant) and elt.value is None:
                out.append(1)  # np.newaxis
                continue
            if isinstance(elt, ast.Constant) and elt.value is Ellipsis:
                remaining = sum(
                    1
                    for later in elts[pos + 1 :]
                    if not (isinstance(later, ast.Constant) and later.value is None)
                )
                keep = rank - consumed - remaining
                if keep < 0:
                    return AbstractArray(None, base.dtype, base.prov)
                out.extend(base.shape[consumed : consumed + keep])
                consumed += keep
                continue
            if consumed >= rank:
                return AbstractArray(None, base.dtype, base.prov)
            if isinstance(elt, ast.Slice):
                self._eval(elt.lower)
                self._eval(elt.upper)
                self._eval(elt.step)
                if elt.lower is None and elt.upper is None and elt.step is None:
                    out.append(base.shape[consumed])
                else:
                    out.append(None)
                consumed += 1
                continue
            value = self._eval(elt)
            if isinstance(value, (_DimVal, _ScalarVal)) or (
                isinstance(elt, ast.Constant) and isinstance(elt.value, int)
            ):
                consumed += 1  # scalar index drops the dim
                continue
            if isinstance(value, AbstractArray):
                fancy += 1
                if value.dtype == "bool":
                    if value.shape is None:
                        return AbstractArray(None, base.dtype, base.prov)
                    out.append(None)  # data-dependent count
                    consumed += len(value.shape)
                    continue
                if (
                    value.dtype in ("int", "int64")
                    and value.shape is not None
                    and len(value.shape) == 1
                    and fancy == 1
                ):
                    out.append(value.shape[0])
                    consumed += 1
                    continue
            return AbstractArray(None, base.dtype, base.prov)
        if consumed > rank or fancy > 1:
            return AbstractArray(None, base.dtype, base.prov)
        shape = tuple(out) + base.shape[consumed:]
        return AbstractArray(shape, base.dtype, base.prov)


# ----------------------------------------------------------------------
# Registry stubs: give the program-pass rules the standard plumbing
# (``--rules`` selection, suppression comments, SARIF descriptors).
# ----------------------------------------------------------------------
@register
class ShapeMismatchRule(Rule):
    """Operands of an array op have statically incompatible shapes.

    Produced by the whole-program shape verifier
    (:func:`shape_findings`); suppress with
    ``# repro-lint: disable=shape-mismatch`` on the offending line.
    """

    name = "shape-mismatch"
    description = "array operands have provably incompatible shapes"
    severity = "error"

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        return iter(())


@register
class RankMismatchRule(Rule):
    """An array's rank provably disagrees with an op or contract."""

    name = "rank-mismatch"
    description = "array rank provably disagrees with an operation or @shapes spec"
    severity = "error"

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        return iter(())


@register
class StaticContractViolationRule(Rule):
    """A call site provably violates the callee's ``@shapes`` contract."""

    name = "static-contract-violation"
    description = "@shapes contract provably violated at a call site"
    severity = "error"

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        return iter(())


@register
class DtypePolicyViolationRule(Rule):
    """Float64 provably enters a ``@hot_path`` float32 chain."""

    name = "dtype-policy-violation"
    description = "float64 provably breaks a @hot_path float32 chain"
    severity = "warning"

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        return iter(())
