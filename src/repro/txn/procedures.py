"""Stored-procedure registry.

The paper implements transactions as "pre-compiled, stored procedures
using CUDA C++".  Here a procedure is a Python callable
``proc(ctx, *params)`` registered under a name; engines look procedures
up by the name carried on each :class:`~repro.txn.transaction.Transaction`.

Procedures must be deterministic functions of ``(database state,
params)`` — no randomness, no wall-clock — or batch determinism breaks.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import TransactionError

Procedure = Callable[..., None]

#: A vectorized twin of a stored procedure: ``fn(batch_ctx, params)``
#: runs *all* transactions of one group at once over a
#: :class:`~repro.txn.batch_context.BatchedContext` and parameter
#: columns.  Registered separately so every procedure keeps working
#: scalar-only (the engine falls back per transaction).
BatchProcedure = Callable[..., None]


class ProcedureRegistry:
    """Named stored procedures for one workload."""

    def __init__(self) -> None:
        self._procs: dict[str, Procedure] = {}
        self._batched: dict[str, BatchProcedure] = {}

    def register(self, name: str, procedure: Procedure | None = None):
        """Register a procedure; usable directly or as a decorator::

            @registry.register("payment")
            def payment(ctx, w_id, d_id, c_id, amount): ...
        """
        if procedure is not None:
            self._store(name, procedure)
            return procedure

        def decorator(fn: Procedure) -> Procedure:
            self._store(name, fn)
            return fn

        return decorator

    def _store(self, name: str, procedure: Procedure) -> None:
        if name in self._procs:
            raise TransactionError(f"procedure {name!r} already registered")
        self._procs[name] = procedure

    def register_batched(self, name: str, procedure: BatchProcedure | None = None):
        """Register the vectorized twin of an already-registered scalar
        procedure (decorator-friendly, like :meth:`register`).

        The scalar procedure must exist first: the batched executor
        falls back to it per transaction for lanes the vectorized
        implementation cannot handle (and for differential testing).
        """
        def store(fn: BatchProcedure) -> BatchProcedure:
            if name not in self._procs:
                raise TransactionError(
                    f"cannot register batched twin for unknown procedure "
                    f"{name!r}; register the scalar procedure first"
                )
            if name in self._batched:
                raise TransactionError(
                    f"batched procedure {name!r} already registered"
                )
            self._batched[name] = fn
            return fn

        if procedure is not None:
            return store(procedure)
        return store

    def get(self, name: str) -> Procedure:
        try:
            return self._procs[name]
        except KeyError:
            raise TransactionError(f"unknown procedure {name!r}") from None

    def get_batched(self, name: str) -> BatchProcedure | None:
        """The vectorized twin, or ``None`` (caller falls back)."""
        return self._batched.get(name)

    def batched_names(self) -> list[str]:
        """Names with a registered vectorized twin (sorted; what the
        twin linters walk)."""
        return sorted(self._batched)

    def __contains__(self, name: str) -> bool:
        return name in self._procs

    def names(self) -> list[str]:
        return sorted(self._procs)
