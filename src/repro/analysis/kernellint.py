"""Kernel-lint: static analysis of the vectorized ``BatchProcedure`` twins.

The batched hot path runs twins over a pluggable
:class:`~repro.xp.ArrayBackend`; mockgpu catches contract violations
*at runtime* on the inputs we happen to execute, while this pass catches
them *statically* on every code path.  Three analyses over every
registered twin:

1. **Backend-contract lint** (``KL1xx``) — operations that escape the
   ``ArrayBackend`` protocol: implicit scalar conversions (``int()``,
   ``float()``, ``bool()``, ``.item()``, ``.tolist()``) on device-derived
   arrays, data-dependent branches on device values, raw ``numpy`` calls
   on device data, ``xp`` methods outside the exported
   :data:`~repro.xp.CONTRACT` surface, float literals / true division /
   float dtypes that would trip ``BackendContractError`` at runtime, and
   host-loop readbacks (sanctioned sites carry an explicit allow marker,
   see below).

2. **Determinism lint** (``KL2xx``) — the vectorized extension of
   detlint's taxonomy: order-dependent host reductions over device
   arrays, ``xp.scatter`` targets whose index expression cannot be shown
   WAW-disjoint, iteration over unordered containers feeding emission,
   and the scalar-pass bans (``random``, wall clock) detlint already
   knows.

3. **Twin-drift audit** (``KL4xx``) — the static read/write footprint
   (tables, columns, op kinds) of each scalar procedure diffed against
   its twin: columns written scalar-side but never twin-side, missing
   abort/fallback/range guards for hazards the scalar path handles,
   writes the twin performs that the scalar never would.

Sanctioned-but-noteworthy host readbacks (index probes driven by an
explicit ``xp.tolist``/``xp.to_host``) are flagged as ``KL105`` unless
annotated with an inline allow marker on the same or preceding line::

    # kernellint: allow[KL105] host hash-index probe (explicit D2H)
    for k in xp.tolist(keys):
        ...

Scalar reductions (``arr.max()`` with no axis) are *not* findings: the
shared contract models them as one-word readbacks, exactly as mockgpu
accounts them at runtime.

On a device backend the authoritative table snapshot lives on the
device (:class:`~repro.xp.residency.DeviceTableView`), so twin or
helper code that reads a table column through the host-side
:class:`~repro.storage.table.Table` API (``table.column(...)`` or the
private ``._columns``/``._keys`` storage) either observes a stale host
mirror or forces a per-batch fence round-trip — exactly the transfer
residency exists to kill.  Such reads are flagged as ``KL106``; route
them through ``bctx`` (``read_rows``/``column_of``/``rows_for_keys``),
which resolves against the resident device copy, or annotate a
sanctioned host probe with ``# kernellint: allow[KL106]``.
"""

from __future__ import annotations

import ast
import functools
import inspect
import os
import re
import textwrap
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis import detlint
from repro.analysis.findings import KERNELLINT, Finding
from repro.txn.procedures import ProcedureRegistry
from repro.xp.base import CONTRACT

#: Rule code -> finding kind (the stable taxonomy tests assert against).
RULES: dict[str, str] = {
    "KL101": "implicit-sync",
    "KL102": "backend-escape",
    "KL103": "float-upcast",
    "KL105": "host-readback-loop",
    "KL106": "host-table-read",
    "KL201": "order-dependent-reduction",
    "KL202": "scatter-non-disjoint",
    "KL203": "unordered-iteration",
    "KL204": "nondeterministic-source",
    "KL401": "twin-missing-write",
    "KL402": "twin-missing-read",
    "KL403": "twin-missing-abort",
    "KL404": "twin-missing-fallback",
    "KL405": "twin-extra-write",
    "KL406": "twin-missing-range",
}

#: ``BatchedContext`` methods that return device-resident arrays.
_BCTX_DEVICE_METHODS = frozenset({
    "all_lanes", "active_lanes", "active_mask",
    "rows_for_keys", "rows_for_flat_keys",
    "read_rows", "read_keys", "read_block", "read_var", "key_at_rows",
    "insert", "column_of",
})
#: The sanctioned readback points: these take device lane vectors and
#: perform the explicit crossing internally.
_BCTX_SINKS = frozenset({"logic_abort", "fall_back"})
#: Emission methods (the effects side, for the unordered-iteration rule).
_TWIN_WRITE_METHODS = frozenset({
    "write", "add", "insert", "scatter", "scatter_add",
    "logic_abort", "fall_back",
})
#: Array attributes that are host metadata, never a transfer.
_HOST_ATTRS = frozenset({
    "size", "shape", "ndim", "nbytes", "dtype", "itemsize", "n",
})
#: xp crossings whose *result* is host data (explicit D2H).
_XP_TO_HOST = frozenset({"to_host", "tolist", "item"})
#: Methods allowed on ``xp`` (derived from the shared contract).
_ALLOWED_XP = CONTRACT.all_methods() | {"is_device", "module", "name"}
#: No-axis reductions modeled as sanctioned one-word readbacks.
_SCALAR_READBACKS = frozenset(CONTRACT.scalar_readbacks)
#: Array methods that stay on the device.
_DEVICE_METHODS = frozenset({
    "astype", "copy", "reshape", "ravel", "view", "flatten",
    "transpose", "clip", "take", "repeat", "round", "cumsum", "argsort",
    "nonzero", "squeeze", "sort",
})
#: Float-producing primitives the int64 hot path must never call.
_FLOAT_PRODUCERS = frozenset({"mean", "std", "var", "average"})
#: Float dtype names in ``np.<name>`` / ``xp.<name>`` position.
_FLOAT_DTYPES = frozenset({"float16", "float32", "float64", "double", "half"})

_ALLOW_RE = re.compile(r"#\s*kernellint:\s*allow\[([A-Z0-9,\s]+)\]")

_KEY_COLUMN = "<key>"

Twin = Callable[..., Any]


def _attr_chain(node: ast.AST) -> list[str]:
    """``a.b.c`` -> ``["a", "b", "c"]`` (empty if not a plain chain)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def unwrap_twin(obj: Any) -> Any:
    """Peel ``functools.partial`` layers down to the underlying callable
    (twins bind their workload scale via ``partial`` at registration)."""
    while isinstance(obj, functools.partial):
        obj = obj.func
    return obj


def _repo_relative(path: str) -> str:
    """Repository-relative source path (stable across checkouts)."""
    import repro

    root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    )
    try:
        rel = os.path.relpath(path, root)
    except ValueError:  # pragma: no cover - windows cross-drive
        return path
    return path if rel.startswith("..") else rel


@dataclass
class SourceUnit:
    """One lintable function: source, AST, and allow-marker map."""

    name: str
    fn: Callable[..., Any]
    file: str
    first_line: int
    source: str
    tree: ast.FunctionDef
    #: absolute line -> codes suppressed on that line
    allow: dict[int, set[str]] = field(default_factory=dict)

    def abs_span(self, node: ast.AST) -> tuple[int, int]:
        start = getattr(node, "lineno", 1) + self.first_line - 1
        end = (getattr(node, "end_lineno", None) or getattr(node, "lineno", 1))
        return (start, end + self.first_line - 1)


def source_unit(name: str, fn: Callable[..., Any]) -> SourceUnit | Finding:
    """Build a :class:`SourceUnit`, or the ``unlintable`` finding."""
    try:
        lines, first_line = inspect.getsourcelines(fn)
        file = inspect.getsourcefile(fn) or "<unknown>"
    except (OSError, TypeError):
        return Finding(
            KERNELLINT, "unlintable", name,
            "source unavailable (builtin/C callable?): cannot lint the "
            "twin statically",
        )
    source = textwrap.dedent("".join(lines))
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:  # pragma: no cover - inspect gave us code
        return Finding(
            KERNELLINT, "unparseable", name, f"could not parse source: {exc}"
        )
    func = next(
        (n for n in tree.body if isinstance(n, ast.FunctionDef)), None
    )
    if func is None:
        return Finding(
            KERNELLINT, "unlintable", name,
            "source does not contain a function definition",
        )
    allow: dict[int, set[str]] = {}
    for offset, text in enumerate(lines):
        match = _ALLOW_RE.search(text)
        if match:
            codes = {c.strip() for c in match.group(1).split(",") if c.strip()}
            allow[first_line + offset] = codes
    return SourceUnit(
        name, fn, _repo_relative(file), first_line, source, func, allow
    )


class _TwinLinter(ast.NodeVisitor):
    """Taint-tracking scan of one twin (or helper) body.

    Run twice: a taint-only pass to reach a fixpoint over loop-carried
    assignments, then an emitting pass that reports findings.  Taint is
    monotone (a name once device-tainted stays tainted), which
    over-approximates but never misses a device value.
    """

    def __init__(
        self,
        unit: SourceUnit,
        bctx_name: str | None,
        params_name: str | None,
        xp_names: set[str],
        tainted: set[str],
    ) -> None:
        self.unit = unit
        self.bctx = bctx_name
        self.params = params_name
        self.xp_names = set(xp_names)
        self.tainted = set(tainted)
        self.disjoint: set[str] = set()
        self.emitting = False
        self.findings: list[Finding] = []
        self.suppressed = 0
        #: module-level helper names this unit calls (resolved later)
        self.helper_calls: set[str] = set()

    # -- finding emission ---------------------------------------------------
    def _emit(self, code: str, node: ast.AST, message: str) -> None:
        if not self.emitting:
            return
        span = self.unit.abs_span(node)
        line = span[0]
        for probe in (line, line - 1):
            if code in self.unit.allow.get(probe, set()):
                self.suppressed += 1
                return
        self.findings.append(
            Finding(
                KERNELLINT, RULES[code], self.unit.name,
                message + f" (line {line})",
                index=line, code=code, file=self.unit.file, span=span,
            )
        )

    # -- expression classification -----------------------------------------
    def _is_xp(self, node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id in self.xp_names

    def _is_bctx_xp_attr(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "xp"
            and isinstance(node.value, ast.Name)
            and node.value.id == self.bctx
        )

    def _is_crossing_call(self, node: ast.AST) -> bool:
        """``xp.to_host(...)`` / ``xp.tolist(...)`` / ``xp.item(...)``."""
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _XP_TO_HOST
            and (
                self._is_xp(node.func.value)
                or self._is_bctx_xp_attr(node.func.value)
            )
        )

    def _is_scalar_readback(self, node: ast.AST) -> bool:
        """``arr.max()`` with no axis: a sanctioned one-word readback."""
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _SCALAR_READBACKS
            and self._taint(node.func.value)
        ):
            return False
        if node.args:
            first = node.args[0]
            if not (isinstance(first, ast.Constant) and first.value is None):
                return False
        for kw in node.keywords:
            if kw.arg == "axis" and not (
                isinstance(kw.value, ast.Constant) and kw.value.value is None
            ):
                return False
        return True

    def _taint(self, node: ast.AST | None) -> bool:
        """Does evaluating ``node`` yield device-resident data?"""
        if node is None:
            return False
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        if isinstance(node, ast.Attribute):
            if node.attr in _HOST_ATTRS:
                return False
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == self.params
                and node.attr in ("lengths", "padded")
            ):
                return True
            return self._taint(node.value)
        if isinstance(node, ast.Call):
            return self._call_taint(node)
        if isinstance(node, ast.Subscript):
            return self._taint(node.value) or self._taint(node.slice)
        if isinstance(node, ast.BinOp):
            return self._taint(node.left) or self._taint(node.right)
        if isinstance(node, ast.BoolOp):
            return any(self._taint(v) for v in node.values)
        if isinstance(node, ast.UnaryOp):
            return self._taint(node.operand)
        if isinstance(node, ast.Compare):
            return self._taint(node.left) or any(
                self._taint(c) for c in node.comparators
            )
        if isinstance(node, ast.IfExp):
            return self._taint(node.body) or self._taint(node.orelse)
        if isinstance(node, (ast.Tuple, ast.List)):
            return any(self._taint(e) for e in node.elts)
        if isinstance(node, ast.NamedExpr):
            return self._taint(node.value)
        if isinstance(node, ast.Starred):
            return self._taint(node.value)
        return False

    def _call_taint(self, node: ast.Call) -> bool:
        func = node.func
        if isinstance(func, ast.Attribute):
            base, attr = func.value, func.attr
            if self._is_xp(base) or self._is_bctx_xp_attr(base):
                return attr not in _XP_TO_HOST
            if isinstance(base, ast.Name) and base.id == self.bctx:
                return attr in _BCTX_DEVICE_METHODS
            if isinstance(base, ast.Name) and base.id == self.params:
                return attr in ("column",)
            if self._is_scalar_readback(node):
                return False
            if self._taint(base):
                # device-array method: tolist/item cross back to host
                # (flagged as implicit syncs by the rules pass)
                if attr in ("tolist", "item"):
                    return False
                return True
            # e.g. np.fromiter(...) — tainted iff an argument is
            return any(self._taint(a) for a in node.args) or any(
                self._taint(k.value) for k in node.keywords
            )
        if isinstance(func, ast.Name):
            name = func.id
            if name in ("int", "float", "bool", "len", "sum", "sorted",
                        "list", "tuple", "zip", "enumerate", "range",
                        "set", "frozenset", "dict", "str", "abs"):
                return False
            # module-level helper: result assumed device when fed device
            return any(self._taint(a) for a in node.args) or any(
                self._taint(k.value) for k in node.keywords
            )
        return False

    def _is_disjoint(self, node: ast.AST) -> bool:
        """Can ``node`` be shown to hold pairwise-distinct indices?"""
        if isinstance(node, ast.Name):
            return node.id in self.disjoint
        if isinstance(node, ast.Subscript):
            # masking/slicing a disjoint vector keeps elements distinct
            return self._is_disjoint(node.value)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                if (
                    self._is_xp(func.value) or self._is_bctx_xp_attr(func.value)
                ) and func.attr in ("flatnonzero", "arange", "unique"):
                    return True
                if (
                    isinstance(func.value, ast.Name)
                    and func.value.id == self.bctx
                    and func.attr in ("all_lanes", "active_lanes")
                ):
                    return True
        return False

    # -- assignments / taint propagation -------------------------------------
    def _bind(self, target: ast.AST, tainted: bool, disjoint: bool) -> None:
        if isinstance(target, ast.Name):
            if tainted:
                self.tainted.add(target.id)
            if disjoint:
                self.disjoint.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, tainted, disjoint)

    def visit_Assign(self, node: ast.Assign) -> None:
        value = node.value
        # x = bctx.xp / x = xp: track backend aliases
        if self._is_bctx_xp_attr(value) or self._is_xp(value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.xp_names.add(target.id)
            return
        if (
            isinstance(value, (ast.Tuple, ast.List))
            and len(node.targets) == 1
            and isinstance(node.targets[0], (ast.Tuple, ast.List))
            and len(node.targets[0].elts) == len(value.elts)
        ):
            for tgt, val in zip(node.targets[0].elts, value.elts):
                self._bind(tgt, self._taint(val), self._is_disjoint(val))
        else:
            tainted = self._taint(value)
            disjoint = self._is_disjoint(value)
            for target in node.targets:
                self._bind(target, tainted, disjoint)
        self.visit(value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self._taint(node.value):
            self._bind(node.target, True, False)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._bind(node.target, self._taint(node.value), False)
            self.visit(node.value)

    # -- control flow rules ---------------------------------------------------
    def _check_branch(self, node: ast.stmt, test: ast.AST) -> None:
        if self._taint(test):
            self._emit(
                "KL101", test,
                "data-dependent branch on a device value: the truth test "
                "is an implicit D2H sync — read it back explicitly "
                "(xp.item / .any() readback) at a phase boundary",
            )

    def visit_If(self, node: ast.If) -> None:
        self._check_branch(node, node.test)
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        self._check_branch(node, node.test)
        self.generic_visit(node)

    def visit_Assert(self, node: ast.Assert) -> None:
        self._check_branch(node, node.test)
        self.generic_visit(node)

    def visit_IfExp(self, node: ast.IfExp) -> None:
        if self._taint(node.test):
            self._emit(
                "KL101", node.test,
                "conditional expression branches on a device value "
                "(implicit D2H sync)",
            )
        self.generic_visit(node)

    # -- loops ----------------------------------------------------------------
    def _readback_loop_sources(self, iter_node: ast.AST) -> bool:
        """Is the loop iterable an explicit whole-array readback?"""
        if self._is_crossing_call(iter_node):
            return True
        if isinstance(iter_node, ast.Call) and isinstance(
            iter_node.func, ast.Name
        ) and iter_node.func.id in ("zip", "enumerate"):
            return any(self._readback_loop_sources(a) for a in iter_node.args)
        return False

    def visit_For(self, node: ast.For) -> None:
        flavor = detlint._is_unordered_ctor(node.iter, set())
        if flavor is not None and _body_emits(node.body):
            self._emit(
                "KL203", node,
                f"iterates a {flavor} and feeds batched emission: "
                "iteration order is not part of the deterministic "
                "contract",
            )
        if self._taint(node.iter):
            self._emit(
                "KL101", node.iter,
                "iterates a device array on the host (implicit per-element "
                "D2H); read it back once via xp.tolist/xp.to_host",
            )
            self._bind(node.target, True, False)
        elif self._readback_loop_sources(node.iter):
            self._emit(
                "KL105", node,
                "host loop over an explicit device readback: sanctioned "
                "sync points must carry a '# kernellint: allow[KL105]' "
                "marker",
            )
        self.visit(node.iter)
        for stmt in node.body:
            self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)

    def _visit_comprehension(
        self, node: ast.GeneratorExp | ast.ListComp | ast.SetComp
    ) -> None:
        for gen in node.generators:
            if self._taint(gen.iter):
                self._emit(
                    "KL101", gen.iter,
                    "comprehension iterates a device array on the host "
                    "(implicit per-element D2H)",
                )
            elif self._readback_loop_sources(gen.iter):
                self._emit(
                    "KL105", gen.iter,
                    "host comprehension over an explicit device readback: "
                    "sanctioned sync points must carry a "
                    "'# kernellint: allow[KL105]' marker",
                )
            self.visit(gen.iter)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comprehension(node)

    # -- calls ----------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        any_tainted_arg = any(self._taint(a) for a in node.args) or any(
            self._taint(k.value) for k in node.keywords
        )
        if isinstance(func, ast.Name):
            fid = func.id
            if fid in ("int", "float", "bool") and any_tainted_arg:
                self._emit(
                    "KL101", node,
                    f"implicit scalar conversion {fid}() on a device value "
                    "outside a sanctioned readback; use xp.item at a phase "
                    "boundary",
                )
            elif fid in ("sum", "sorted", "max", "min") and any_tainted_arg:
                self._emit(
                    "KL201", node,
                    f"host builtin {fid}() reduces/orders a device array "
                    "element-by-element: order-dependent and an implicit "
                    "sync — use the xp reduction primitives",
                )
            elif fid in ("list", "tuple", "set", "iter") and any_tainted_arg:
                self._emit(
                    "KL101", node,
                    f"{fid}() materializes a device array on the host "
                    "(implicit D2H); use xp.tolist/xp.to_host explicitly",
                )
            elif fid not in dir(__import__("builtins")):
                self.helper_calls.add(fid)
        elif isinstance(func, ast.Attribute):
            chain = _attr_chain(func)
            root = chain[0] if chain else None
            if root in ("np", "numpy") and any_tainted_arg:
                self._emit(
                    "KL102", node,
                    f"raw numpy call {'.'.join(chain)}() on device-derived "
                    "data escapes the ArrayBackend protocol; route it "
                    "through xp",
                )
            elif (
                self._is_xp(func.value) or self._is_bctx_xp_attr(func.value)
            ) and func.attr not in _ALLOWED_XP:
                self._emit(
                    "KL102", node,
                    f"xp.{func.attr}() is not part of the exported "
                    "ArrayBackend protocol surface "
                    "(repro.xp.CONTRACT); backends are only required to "
                    "implement the contract",
                )
            elif func.attr in _FLOAT_PRODUCERS and (
                any_tainted_arg or self._taint(func.value)
            ):
                self._emit(
                    "KL103", node,
                    f"{func.attr}() produces a floating dtype: the hot "
                    "path is int64-disciplined "
                    "(BackendContractError at runtime under mockgpu)",
                )
            elif func.attr in ("item", "tolist") and self._taint(func.value):
                self._emit(
                    "KL101", node,
                    f".{func.attr}() on a device array is an implicit host "
                    f"round-trip; use xp.{func.attr}(...) at a phase "
                    "boundary",
                )
            elif func.attr == "astype" and self._taint(func.value):
                self._check_float_dtype_arg(node)
            elif func.attr == "scatter" and (
                self._is_xp(func.value) or self._is_bctx_xp_attr(func.value)
            ):
                self._check_scatter(node)
            elif func.attr in ("column", "host_column") and not (
                isinstance(func.value, ast.Name)
                and func.value.id in (self.params, self.bctx)
            ):
                self._emit(
                    "KL106", node,
                    f".{func.attr}() reads a table column through the "
                    "host-side Table API: under device residency the "
                    "authoritative copy is the DeviceTableView, so this "
                    "either observes a stale host mirror or forces a "
                    "per-batch fence round-trip — route the read through "
                    "bctx (read_rows/column_of), or mark a sanctioned "
                    "host probe with '# kernellint: allow[KL106]'",
                )
        self.generic_visit(node)

    def _check_float_dtype_arg(self, node: ast.Call) -> None:
        for arg in list(node.args) + [k.value for k in node.keywords]:
            is_float_name = isinstance(arg, ast.Name) and arg.id == "float"
            chain = _attr_chain(arg)
            is_float_attr = bool(chain) and chain[-1] in _FLOAT_DTYPES
            if is_float_name or is_float_attr:
                self._emit(
                    "KL103", node,
                    "astype to a floating dtype breaks the int64 "
                    "discipline of the batched hot path",
                )

    def _check_scatter(self, node: ast.Call) -> None:
        if len(node.args) < 2:
            return
        index = node.args[1]
        if not self._is_disjoint(index):
            self._emit(
                "KL202", node,
                "xp.scatter (assignment scatter) with an index expression "
                "that cannot be shown WAW-disjoint: apply order would "
                "change state across backends — use scatter_add "
                "(commutative) or derive the index from "
                "flatnonzero/arange/unique",
            )

    # -- literals -------------------------------------------------------------
    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, float):
            self._emit(
                "KL103", node,
                f"float literal {node.value!r} in twin code: any float "
                "operand upcasts the int64 data path "
                "(BackendContractError at runtime under mockgpu)",
            )

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.Div) and (
            self._taint(node.left) or self._taint(node.right)
        ):
            self._emit(
                "KL103", node,
                "true division (/) on device data produces float64; use "
                "floor division (//) to stay int64",
            )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in ("_columns", "_keys") and not self._is_xp(node.value):
            self._emit(
                "KL106", node,
                f"._{node.attr.lstrip('_')} touches Table's private host "
                "storage directly, bypassing the residency fence: under "
                "device residency the host ndarray may be stale — use the "
                "bctx device path or '# kernellint: allow[KL106]' for a "
                "sanctioned host probe",
            )
        if node.attr in _FLOAT_DTYPES:
            chain = _attr_chain(node)
            if chain and chain[0] in ("np", "numpy") or self._is_xp(node.value):
                self._emit(
                    "KL103", node,
                    f"float dtype {'.'.join(chain) or node.attr} referenced "
                    "in twin code: the hot path is int64-disciplined",
                )
        self.generic_visit(node)

    # skip nested function definitions (helpers are linted separately)
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node is self.unit.tree:
            self.generic_visit(node)

    def run(self) -> tuple[list[Finding], int]:
        """Taint fixpoint, then one emitting pass."""
        for _ in range(10):
            before = (len(self.tainted), len(self.disjoint),
                      len(self.xp_names))
            self.visit(self.unit.tree)
            if (len(self.tainted), len(self.disjoint),
                    len(self.xp_names)) == before:
                break
        self.emitting = True
        self.visit(self.unit.tree)
        return self.findings, self.suppressed


def _body_emits(body: list[ast.stmt]) -> bool:
    for stmt in body:
        for sub in ast.walk(stmt):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in _TWIN_WRITE_METHODS
            ):
                return True
    return False


def _twin_arg_names(func: ast.FunctionDef) -> tuple[str | None, str | None]:
    """The (bctx, params) parameter names of a twin definition.

    By convention twins are ``fn([bound...,] bctx, params)``; fall back
    to the last two positional parameters when the names differ.
    """
    names = [a.arg for a in func.args.args]
    bctx = "bctx" if "bctx" in names else (
        names[-2] if len(names) >= 2 else None
    )
    params = "params" if "params" in names else (
        names[-1] if names else None
    )
    return bctx, params


def lint_twin_unit(unit: SourceUnit) -> tuple[list[Finding], int, set[str]]:
    """Backend-contract + determinism lint of one twin.

    Returns ``(findings, suppressed, helper_names)`` where
    ``helper_names`` are same-module functions the twin calls (linted
    separately by :func:`lint_registry_twins`).
    """
    bctx, params = _twin_arg_names(unit.tree)
    linter = _TwinLinter(
        unit, bctx, params,
        xp_names={"xp"} if any(
            a.arg == "xp" for a in unit.tree.args.args
        ) else set(),
        tainted=set(),
    )
    findings, suppressed = linter.run()
    findings.extend(_banned_source_findings(unit))
    return findings, suppressed, linter.helper_calls


def lint_helper_unit(unit: SourceUnit) -> tuple[list[Finding], int]:
    """Lint a module-level helper a twin calls.

    Every parameter except the backend/context conventions
    (``xp``/``bctx``/``scale``/``params``) is assumed device-resident.
    """
    names = [a.arg for a in unit.tree.args.args]
    tainted = {
        n for n in names if n not in ("xp", "bctx", "scale", "params", "self")
    }
    linter = _TwinLinter(
        unit,
        "bctx" if "bctx" in names else None,
        "params" if "params" in names else None,
        xp_names={"xp"} if "xp" in names else set(),
        tainted=tainted,
    )
    findings, suppressed = linter.run()
    findings.extend(_banned_source_findings(unit))
    return findings, suppressed


def _banned_source_findings(unit: SourceUnit) -> list[Finding]:
    """The scalar determinism bans (detlint taxonomy) mapped to KL204."""
    out: list[Finding] = []
    for f in detlint.lint_source(unit.name, unit.source):
        if f.kind not in ("nondeterministic-module", "nondeterministic-call"):
            continue
        line = (f.index or 1) + unit.first_line - 1
        out.append(
            Finding(
                KERNELLINT, RULES["KL204"], unit.name,
                f"{f.message.split(' (line')[0]} (line {line})",
                index=line, code="KL204", file=unit.file, span=(line, line),
            )
        )
    return out


# -- twin-drift audit ---------------------------------------------------------

@dataclass(frozen=True)
class Access:
    """One static footprint entry: op kind on (table, column)."""

    kind: str  # read | write | add | insert
    table: str
    column: str


@dataclass
class Footprint:
    """The static read/write footprint of one procedure body."""

    accesses: set[Access] = field(default_factory=set)
    aborts: bool = False
    falls_back: bool = False
    ranges: bool = False
    #: (table, column) pairs read *and* written inside one loop — the
    #: read-your-own-writes hazards that demand a fallback guard.
    loop_rmw: set[tuple[str, str]] = field(default_factory=set)

    def writes(self) -> set[Access]:
        return {a for a in self.accesses if a.kind in ("write", "add", "insert")}

    def reads(self) -> set[Access]:
        return {a for a in self.accesses if a.kind == "read"}


#: ctx-method -> (kind, index of the column argument); -1 = key column,
#: -2 = dict-literal insert payload.
_SCALAR_METHODS: dict[str, tuple[str, int]] = {
    "read": ("read", 2),
    "read_at": ("read", 2),
    "range_read": ("read", 3),
    "write": ("write", 2),
    "write_at": ("write", 2),
    "add": ("add", 2),
    "insert": ("insert", -2),
    "key_at": ("read", -1),
}
_TWIN_METHODS: dict[str, tuple[str, int]] = {
    "read_rows": ("read", 3),
    "read_keys": ("read", 3),
    "read_block": ("read", 3),
    "read_var": ("read", 4),
    "column_of": ("read", 1),
    "key_at_rows": ("read", -1),
    "write": ("write", 3),
    "add": ("add", 3),
    "insert": ("insert", -2),
}


class _FootprintVisitor(ast.NodeVisitor):
    def __init__(
        self,
        ctx_name: str,
        methods: dict[str, tuple[str, int]],
        abort_methods: frozenset[str],
        fallback_methods: frozenset[str],
        range_methods: frozenset[str],
    ) -> None:
        self.ctx = ctx_name
        self.methods = methods
        self.abort_methods = abort_methods
        self.fallback_methods = fallback_methods
        self.range_methods = range_methods
        self.fp = Footprint()
        self._loop_depth = 0
        self._loop_reads: list[set[tuple[str, str]]] = []
        self._loop_writes: list[set[tuple[str, str]]] = []

    def _record(self, node: ast.Call, attr: str) -> None:
        if attr in self.abort_methods:
            self.fp.aborts = True
        if attr in self.fallback_methods:
            self.fp.falls_back = True
        if attr in self.range_methods:
            self.fp.ranges = True
        spec = self.methods.get(attr)
        if spec is None or not node.args:
            return
        kind, col_idx = spec
        table_arg = node.args[0]
        if not (
            isinstance(table_arg, ast.Constant)
            and isinstance(table_arg.value, str)
        ):
            return
        table = table_arg.value
        if attr == "range_read":
            self.fp.ranges = True
        if col_idx == -1:
            self._add(kind, table, _KEY_COLUMN)
        elif col_idx == -2:
            payload = node.args[-1]
            if isinstance(payload, ast.Dict):
                for key in payload.keys:
                    if isinstance(key, ast.Constant) and isinstance(
                        key.value, str
                    ):
                        self._add(kind, table, key.value)
        elif col_idx < len(node.args):
            col_arg = node.args[col_idx]
            if isinstance(col_arg, ast.Constant) and isinstance(
                col_arg.value, str
            ):
                self._add(kind, table, col_arg.value)

    def _add(self, kind: str, table: str, column: str) -> None:
        self.fp.accesses.add(Access(kind, table, column))
        if self._loop_depth and column != _KEY_COLUMN:
            if kind == "read":
                self._loop_reads[-1].add((table, column))
            elif kind in ("write", "add"):
                self._loop_writes[-1].add((table, column))

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == self.ctx
        ):
            self._record(node, func.attr)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._loop_depth += 1
        self._loop_reads.append(set())
        self._loop_writes.append(set())
        self.generic_visit(node)
        reads = self._loop_reads.pop()
        writes = self._loop_writes.pop()
        self._loop_depth -= 1
        rmw = reads & writes
        if self._loop_depth:
            # nested loops fold into the enclosing loop's sets
            self._loop_reads[-1] |= reads
            self._loop_writes[-1] |= writes
        self.fp.loop_rmw |= rmw


def extract_footprint(
    unit: SourceUnit,
    ctx_name: str,
    methods: dict[str, tuple[str, int]],
    abort_methods: frozenset[str],
    fallback_methods: frozenset[str],
    range_methods: frozenset[str],
) -> Footprint:
    visitor = _FootprintVisitor(
        ctx_name, methods, abort_methods, fallback_methods, range_methods
    )
    visitor.visit(unit.tree)
    return visitor.fp


def scalar_footprint(unit: SourceUnit) -> Footprint:
    """Static footprint of a scalar procedure (ctx = first parameter)."""
    args = unit.tree.args.args
    ctx = args[0].arg if args else "ctx"
    return extract_footprint(
        unit, ctx, _SCALAR_METHODS,
        abort_methods=frozenset({"abort"}),
        fallback_methods=frozenset(),
        range_methods=frozenset({"range_read"}),
    )


def twin_footprint(unit: SourceUnit) -> Footprint:
    """Static footprint of a vectorized twin."""
    bctx, _ = _twin_arg_names(unit.tree)
    return extract_footprint(
        unit, bctx or "bctx", _TWIN_METHODS,
        abort_methods=frozenset({"logic_abort"}),
        fallback_methods=frozenset({"fall_back"}),
        range_methods=frozenset({"range_predicate"}),
    )


def drift_findings(
    proc_name: str,
    scalar_unit: SourceUnit,
    twin_unit: SourceUnit,
) -> list[Finding]:
    """Diff the scalar procedure's footprint against its twin's."""
    scalar = scalar_footprint(scalar_unit)
    twin = twin_footprint(twin_unit)
    subject = f"{proc_name}[batched]"
    anchor = twin_unit.abs_span(twin_unit.tree)
    span = (anchor[0], anchor[0])

    def finding(code: str, message: str) -> Finding:
        return Finding(
            KERNELLINT, RULES[code], subject, message,
            index=span[0], code=code, file=twin_unit.file, span=span,
        )

    out: list[Finding] = []
    for acc in sorted(
        scalar.writes() - twin.writes(),
        key=lambda a: (a.kind, a.table, a.column),
    ):
        out.append(
            finding(
                "KL401",
                f"scalar path {acc.kind}s {acc.table}.{acc.column} but the "
                "twin never does: coverage drift — committed state would "
                "diverge between executors",
            )
        )
    for acc in sorted(
        scalar.reads() - twin.reads(),
        key=lambda a: (a.table, a.column),
    ):
        out.append(
            finding(
                "KL402",
                f"scalar path reads {acc.table}.{acc.column} but the twin "
                "never does: the twin's conflict footprint is narrower "
                "than the scalar truth",
            )
        )
    for acc in sorted(
        twin.writes() - scalar.writes(),
        key=lambda a: (a.kind, a.table, a.column),
    ):
        out.append(
            finding(
                "KL405",
                f"twin {acc.kind}s {acc.table}.{acc.column} but the scalar "
                "path never does: the twin writes state its scalar twin "
                "would not",
            )
        )
    if scalar.aborts and not (twin.aborts or twin.falls_back):
        out.append(
            finding(
                "KL403",
                "scalar path has a logic abort (ctx.abort) but the twin "
                "neither logic_aborts nor falls back: aborting lanes "
                "would commit under the batched executor",
            )
        )
    if scalar.loop_rmw and not twin.falls_back:
        locs = ", ".join(f"{t}.{c}" for t, c in sorted(scalar.loop_rmw))
        out.append(
            finding(
                "KL404",
                f"scalar path read-modify-writes {locs} inside a loop (a "
                "read-your-own-writes hazard across iterations) but the "
                "twin has no fall_back guard for hazard lanes",
            )
        )
    if scalar.ranges and not (twin.ranges or twin.falls_back):
        out.append(
            finding(
                "KL406",
                "scalar path records a range predicate (range_read) but "
                "the twin neither emits range_predicate nor falls back: "
                "phantom protection is lost on the batched path",
            )
        )
    return out


# -- registry-level driver ----------------------------------------------------

def lint_registry_twins(
    registry: ProcedureRegistry,
) -> tuple[list[Finding], int, int]:
    """All three analyses over every registered twin.

    Returns ``(findings, twins_checked, suppressed)``.
    """
    findings: list[Finding] = []
    suppressed = 0
    helper_seen: set[tuple[str, str]] = set()
    names = registry.batched_names()
    for name in names:
        twin_obj = registry.get_batched(name)
        fn = unwrap_twin(twin_obj)
        unit = source_unit(f"{name}[batched]", fn)
        if isinstance(unit, Finding):
            findings.append(unit)
            continue
        twin_findings, twin_suppressed, helpers = lint_twin_unit(unit)
        findings.extend(twin_findings)
        suppressed += twin_suppressed
        # same-module helpers the twin calls are part of its data path
        for helper_name in sorted(helpers):
            helper = getattr(fn, "__globals__", {}).get(helper_name)
            if not (
                inspect.isfunction(helper)
                and helper.__module__ == fn.__module__
            ):
                continue
            key = (helper.__module__, helper_name)
            if key in helper_seen:
                continue
            helper_seen.add(key)
            helper_unit = source_unit(
                f"{helper.__module__}.{helper_name}", helper
            )
            if isinstance(helper_unit, Finding):
                findings.append(helper_unit)
                continue
            helper_findings, helper_suppressed = lint_helper_unit(helper_unit)
            findings.extend(helper_findings)
            suppressed += helper_suppressed
        # twin-drift audit against the scalar ground truth
        scalar_unit = source_unit(name, registry.get(name))
        if not isinstance(scalar_unit, Finding):
            findings.extend(drift_findings(name, scalar_unit, unit))
    return findings, len(names), suppressed


__all__ = [
    "RULES",
    "Access",
    "Footprint",
    "SourceUnit",
    "drift_findings",
    "lint_helper_unit",
    "lint_registry_twins",
    "lint_twin_unit",
    "scalar_footprint",
    "source_unit",
    "twin_footprint",
    "unwrap_twin",
]
