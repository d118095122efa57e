"""Table schemas.

The paper stores every attribute as an integer ("All attributes in
tables are set to integer type because CUDA does not support strings"),
so columns are int64 throughout.  A schema names the table, its columns
and the single int64 primary-key column; workloads that need composite
keys (e.g. TPC-C district = (w_id, d_id)) encode them into one int64.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import StorageError


@dataclass(frozen=True)
class ColumnDef:
    """One named int64 column."""

    name: str
    default: int = 0

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise StorageError(f"invalid column name {self.name!r}")


@dataclass(frozen=True)
class Schema:
    """A table schema: name, primary-key column, attribute columns."""

    table_name: str
    key_column: str
    columns: tuple[ColumnDef, ...]

    def __post_init__(self) -> None:
        if not self.table_name:
            raise StorageError("table name must be non-empty")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise StorageError(f"duplicate column in schema {self.table_name!r}")
        if self.key_column in names:
            raise StorageError(
                f"key column {self.key_column!r} must not repeat in columns"
            )

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @property
    def num_columns(self) -> int:
        """Attribute columns, excluding the key."""
        return len(self.columns)

    @property
    def row_bytes(self) -> int:
        """Bytes per row including the key (int64 everywhere)."""
        return 8 * (self.num_columns + 1)


def make_schema(table_name: str, key_column: str, *column_names: str) -> Schema:
    """Convenience constructor from bare column names."""
    return Schema(
        table_name=table_name,
        key_column=key_column,
        columns=tuple(ColumnDef(n) for n in column_names),
    )
