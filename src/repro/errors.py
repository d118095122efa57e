"""Exception hierarchy for the repro package.

All errors raised by this library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
letting genuine programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class DeviceError(ReproError):
    """Raised for invalid GPU-simulator operations (bad launch geometry,
    an unknown copy kind, use of a destroyed stream, ...)."""


class StorageError(ReproError):
    """Raised for storage-layer misuse (unknown column, duplicate key,
    schema mismatch, ...)."""


class KeyNotFound(StorageError):
    """Raised when a primary-key lookup finds no row."""


class DuplicateKey(StorageError):
    """Raised when inserting a primary key that already exists."""


class TransactionError(ReproError):
    """Raised for transaction-layer misuse (unknown procedure, operation
    outside an active transaction, ...)."""


class ConfigError(TransactionError):
    """Raised for invalid or contradictory :class:`LTPGConfig` settings
    (subclasses :class:`TransactionError` so existing callers that catch
    configuration failures keep working)."""


class BackendError(ReproError):
    """Raised for array-backend misuse (:mod:`repro.xp`): unknown
    backend names, malformed primitive arguments, ..."""


class BackendContractError(BackendError):
    """Raised by the ``mockgpu`` backend when code inside a kernel phase
    performs an implicit device-to-host round-trip (``tolist``/``int``/
    iteration on a device array) instead of synchronizing explicitly
    through ``xp.to_host``/``xp.item`` at a phase boundary."""


class TransactionAborted(TransactionError):
    """Raised inside a stored procedure to signal a logic-initiated abort
    (e.g. TPC-C NewOrder's 1%% rollback)."""


class WorkloadError(ReproError):
    """Raised for invalid workload configuration."""


class BenchmarkError(ReproError):
    """Raised for invalid benchmark configuration."""
