"""Row-level conflict-flag splitting (paper §V-D).

By default one conflict flag guards a whole row, so a write to a hot
attribute (``W_YTD``) conflicts with reads of unrelated attributes of
the same row (``W_ZIP``).  Splitting gives flagged columns their own
conflict-logging group: the conflict-log key becomes
``(table, row, group)`` instead of ``(table, row)``, and operations in
different groups never conflict.

Soundness: a split is safe exactly because transactions that touch
*different* columns of a row have no data dependency — the storage
layer is columnar, so a committed write to ``W_YTD`` cannot clobber
``W_ZIP``.  Two operations on the *same* column always share a group.
"""

from __future__ import annotations

import numpy as np

from repro.errors import StorageError
from repro.storage.database import Database
from repro.txn.operations import column_interner_size, intern_column

#: Group id shared by all unflagged columns of a table.
DEFAULT_GROUP = 0


class FlagGroups:
    """Column -> conflict-flag-group mapping for every table."""

    def __init__(
        self,
        database: Database,
        split_columns: frozenset[tuple[str, str]] = frozenset(),
        enabled: bool = True,
    ):
        self.enabled = enabled
        self._group_of: list[dict[str, int]] = []
        self._num_groups: list[int] = []
        self._lut: np.ndarray | None = None
        split_by_table: dict[str, list[str]] = {}
        if enabled:
            for table, column in sorted(split_columns):
                split_by_table.setdefault(table, []).append(column)
        for table in database.tables:
            mapping: dict[str, int] = {}
            next_group = DEFAULT_GROUP + 1
            for column in split_by_table.get(table.name, ()):  # sorted above
                if column not in table.schema.column_names:
                    raise StorageError(
                        f"cannot split unknown column {column!r} of "
                        f"table {table.name!r}"
                    )
                mapping[column] = next_group
                next_group += 1
            self._group_of.append(mapping)
            self._num_groups.append(next_group if mapping else 1)

    def group_of(self, table_id: int, column: str) -> int:
        """The conflict group of ``column`` (DEFAULT_GROUP if unflagged
        or splitting is disabled)."""
        return self._group_of[table_id].get(column, DEFAULT_GROUP)

    def group_lookup(self, table_ids: np.ndarray, col_ids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`group_of` over interned column ids."""
        if not any(self._group_of):
            return np.zeros(table_ids.size, dtype=np.int64)
        if self._lut is None or self._lut.shape[1] < column_interner_size():
            pairs = [
                (t, intern_column(column), group)
                for t, mapping in enumerate(self._group_of)
                for column, group in mapping.items()
            ]
            lut = np.full(
                (len(self._group_of), column_interner_size()),
                DEFAULT_GROUP,
                dtype=np.int64,
            )
            for t, col_id, group in pairs:
                lut[t, col_id] = group
            self._lut = lut
        # one flat gather: cheaper than the two-index one
        return self._lut.ravel()[table_ids * self._lut.shape[1] + col_ids]

    def num_groups(self, table_id: int) -> int:
        """How many conflict groups this table's rows fan out into."""
        return self._num_groups[table_id]

    def split_column_count(self) -> int:
        return sum(len(m) for m in self._group_of)
