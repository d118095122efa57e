"""Determinism linter for stored procedures.

LTPG requires every stored procedure to be a pure function of
``(snapshot, params)`` — the deterministic tie-breaking that makes batch
outcomes reproducible assumes re-executing a transaction replays the
exact same operation stream.  This module enforces that two ways:

* **Static pass** — an AST scan of each registered procedure that
  rejects nondeterminism sources: the ``random``/``time``/``secrets``/
  ``uuid`` modules, ``os.urandom``-style process state, ``datetime.now``,
  NumPy's ``random`` namespace, address-dependent builtins (``id``,
  ``hash``, ``object()``), and iteration over unordered ``set``/``dict``
  constructions that feeds writes (GPU ports cannot honor CPython's
  incidental iteration orders).

* **Dynamic twin** — replay each procedure twice against the same
  snapshot (buffered execution never mutates it) and diff the recorded
  :class:`~repro.txn.operations.OpColumns` streams byte for byte.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import TransactionAborted
from repro.storage.database import Database
from repro.txn.context import BufferedContext
from repro.txn.procedures import ProcedureRegistry
from repro.txn.transaction import Transaction

#: Modules whose mere use inside a procedure is a determinism hazard.
_BANNED_MODULES = frozenset({"random", "time", "secrets", "uuid"})
#: (module root, attribute) pairs that are hazards even though the
#: module itself is fine.
_BANNED_ATTRS = frozenset(
    {
        ("os", "urandom"),
        ("os", "getpid"),
        ("os", "times"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("np", "random"),
        ("numpy", "random"),
    }
)
#: Builtins whose results depend on addresses or hash randomization.
_BANNED_BUILTINS = frozenset({"id", "hash", "object", "input"})
#: Context methods that constitute writes (the effects side).
_WRITE_METHODS = frozenset({"write", "add", "insert"})


@dataclass(frozen=True)
class Finding:
    """One determinism hazard.  ``subject`` names the procedure
    (``"<name>[batched]"`` for a twin); ``index`` is the source line
    of a static finding."""

    kind: str
    subject: str
    message: str
    index: int | None = None

    def describe(self) -> str:
        return f"detlint:{self.kind} {self.subject}: {self.message}"


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


def _is_unordered_ctor(node: ast.AST, set_names: set[str]) -> str | None:
    """Is ``node`` an unordered collection? Returns 'set'/'dict' or None."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return "set"
        if node.func.id == "dict":
            return "dict"
    if isinstance(node, ast.Name) and node.id in set_names:
        return "set"
    return None


class _ProcedureLinter(ast.NodeVisitor):
    """One procedure's static determinism scan."""

    def __init__(self, proc_name: str):
        self.proc_name = proc_name
        self.findings: list[Finding] = []
        #: Names assigned from set/dict constructors in this function.
        self._unordered_names: set[str] = set()

    def _emit(self, kind: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", None)
        self.findings.append(
            Finding(
                kind,
                self.proc_name,
                message + (f" (line {line})" if line is not None else ""),
                index=line,
            )
        )

    # -- nondeterministic names/calls ----------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in _BANNED_MODULES:
                self._emit(
                    "nondeterministic-module", node,
                    f"imports nondeterministic module {alias.name!r}",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        root = (node.module or "").split(".")[0]
        if root in _BANNED_MODULES:
            self._emit(
                "nondeterministic-module", node,
                f"imports from nondeterministic module {node.module!r}",
            )
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and node.id in _BANNED_MODULES:
            self._emit(
                "nondeterministic-call", node,
                f"uses nondeterministic module {node.id!r}",
            )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        chain = _attr_chain(node)
        if len(chain) >= 2 and (chain[0], chain[1]) in _BANNED_ATTRS:
            self._emit(
                "nondeterministic-call", node,
                f"uses nondeterministic source {'.'.join(chain)!r}",
            )
        # chain[0] in _BANNED_MODULES already reported via visit_Name.
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id in _BANNED_BUILTINS:
            self._emit(
                "nondeterministic-call", node,
                f"calls address/hash-dependent builtin {node.func.id!r}()",
            )
        self.generic_visit(node)

    # -- unordered iteration feeding writes ----------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_unordered_ctor(node.value, self._unordered_names):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._unordered_names.add(target.id)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        flavor = _is_unordered_ctor(node.iter, self._unordered_names)
        if flavor is not None and self._body_writes(node.body):
            self._emit(
                "unordered-iteration", node,
                f"iterates a {flavor} and feeds ctx writes: iteration "
                "order is not part of the deterministic contract",
            )
        self.generic_visit(node)

    @staticmethod
    def _body_writes(body: list[ast.stmt]) -> bool:
        for stmt in body:
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in _WRITE_METHODS
                ):
                    return True
        return False


def lint_source(proc_name: str, source: str) -> list[Finding]:
    """Static determinism scan over one procedure's source text."""
    try:
        tree = ast.parse(textwrap.dedent(source))
    except SyntaxError as exc:
        return [
            Finding(
                "unparseable", proc_name,
                f"could not parse source: {exc}",
            )
        ]
    linter = _ProcedureLinter(proc_name)
    linter.visit(tree)
    return linter.findings


def lint_procedure(proc_name: str, procedure: Callable[..., Any]) -> list[Finding]:
    """Static scan of a registered procedure (source via ``inspect``)."""
    try:
        source = inspect.getsource(procedure)
    except (OSError, TypeError):
        return [
            Finding(
                "unlintable", proc_name,
                "source unavailable (builtin/C callable?): cannot verify "
                "determinism statically",
            )
        ]
    return lint_source(proc_name, source)


def lint_registry(
    registry: ProcedureRegistry, include_batched: bool = True
) -> list[Finding]:
    """Static scan over every procedure in a registry.

    Batched twins run the same determinism contract as their scalar
    originals (the batched executor replays them for tie-breaking too),
    so by default the scan also walks every ``register_batched`` twin,
    reported under the subject ``"<name>[batched]"``.  Twins bound via
    ``functools.partial`` (scale configuration) are unwrapped first.
    """
    findings: list[Finding] = []
    for name in registry.names():
        findings.extend(lint_procedure(name, registry.get(name)))
    if include_batched:
        import functools  # noqa: PLC0415 (keep module deps light)

        for name in registry.batched_names():
            twin = registry.get_batched(name)
            while isinstance(twin, functools.partial):
                twin = twin.func
            findings.extend(lint_procedure(f"{name}[batched]", twin))
    return findings


# -- dynamic twin: replay and diff the op streams -------------------------

def _run_once(
    database: Database, procedure: Callable[..., Any], params: tuple
) -> tuple[bytes, str]:
    """One buffered execution; returns (op-stream bytes, outcome tag).

    Buffered contexts never mutate the database, so repeated runs see
    the identical snapshot.
    """
    ctx = BufferedContext(database)
    try:
        procedure(ctx, *params)
        outcome = "ok"
    except TransactionAborted as exc:
        outcome = f"logic-abort:{exc}"
    return ctx.ops.buffer.tobytes(), outcome


def replay_procedure(
    database: Database,
    proc_name: str,
    procedure: Callable[..., Any],
    params: tuple,
    repeats: int = 2,
) -> list[Finding]:
    """Replay a procedure ``repeats`` times; diff the op streams."""
    baseline_ops, baseline_outcome = _run_once(database, procedure, params)
    for attempt in range(1, repeats):
        ops, outcome = _run_once(database, procedure, params)
        if ops != baseline_ops or outcome != baseline_outcome:
            detail = (
                f"outcome {baseline_outcome!r} vs {outcome!r}"
                if outcome != baseline_outcome
                else f"op streams differ ({len(baseline_ops)//48} vs "
                f"{len(ops)//48} ops or same count, different payload)"
            )
            return [
                Finding(
                    "replay-divergence",
                    proc_name,
                    f"replay {attempt + 1} diverged from replay 1 on an "
                    f"identical snapshot: {detail}",
                )
            ]
    return []


def replay_transactions(
    database: Database,
    registry: ProcedureRegistry,
    transactions: list[Transaction],
    samples_per_procedure: int = 2,
) -> list[Finding]:
    """Replay-check a sample of transactions, a few per procedure."""
    findings: list[Finding] = []
    seen: dict[str, int] = {}
    for txn in transactions:
        count = seen.get(txn.procedure_name, 0)
        if count >= samples_per_procedure:
            continue
        seen[txn.procedure_name] = count + 1
        findings.extend(
            replay_procedure(
                database,
                txn.procedure_name,
                registry.get(txn.procedure_name),
                txn.params,
            )
        )
    return findings
