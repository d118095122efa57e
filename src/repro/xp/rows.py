"""Rows ordered by a key: the record the stages hand each other, and
the one sorted-run primitive they group it with.

Everything the three phases pass along is a set of rows with aligned
int64 columns — reservations (execute -> conflict) and buffered cells
(execute -> write-back) — and everything they do to such a set is
"order by a key, find the runs of equal keys" (the paper's §IV-C
grouping; GPUTx's sort-then-primitive bulk model).  :class:`Rows` is
the record; :func:`sorted_runs` is the grouping, and the only place
that decides between one packed radix key and a multi-key sort.
"""

from __future__ import annotations

from typing import ClassVar

import numpy as np

from repro.xp.base import ArrayBackend
from repro.xp.numpy_backend import HOST

#: A packed sort key keeps clear of the sign bit and one more, so the
#: running product of field spans cannot wrap before it is checked.
_PACK_LIMIT = 1 << 62


class Rows:
    """Aligned one-dimensional int64 columns, named by :attr:`FIELDS`.

    A subclass names its columns (``FIELDS`` and ``__slots__``, in the
    same order) and is built positionally; construction rejects columns
    that are not int64 vectors of one length, so a record that exists
    is aligned.  Records are values: every method returns a new one.
    """

    FIELDS: ClassVar[tuple[str, ...]] = ()
    __slots__ = ()

    def __init__(self, *columns: np.ndarray) -> None:
        fields = self.FIELDS
        if len(columns) != len(fields):
            raise ValueError(
                f"{type(self).__name__} takes {len(fields)} columns "
                f"{fields}, got {len(columns)}"
            )
        size = columns[0].size
        for name, column in zip(fields, columns):
            if column.ndim != 1 or column.size != size or column.dtype != np.int64:
                raise ValueError(
                    f"{type(self).__name__}.{name}: expected an int64 "
                    f"vector of {size} rows, got {column.dtype} of shape "
                    f"{column.shape}"
                )
            setattr(self, name, column)

    @classmethod
    def _aligned(cls, columns):
        """A record of columns already known to be aligned — the same
        selection or transfer applied to every column of a record."""
        rows = object.__new__(cls)
        for name, column in zip(cls.FIELDS, columns):
            setattr(rows, name, column)
        return rows

    @property
    def size(self) -> int:
        return getattr(self, self.FIELDS[0]).size

    def columns(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self.FIELDS]

    @classmethod
    def empty(cls):
        column = np.empty(0, dtype=np.int64)
        return cls._aligned([column] * len(cls.FIELDS))

    @classmethod
    def concat(cls, parts):
        """The rows of ``parts``, in order (host records)."""
        parts = [p for p in parts if p.size]
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return cls.empty()
        return cls._aligned(map(np.concatenate, zip(*(p.columns() for p in parts))))

    def take(self, sel):
        """The rows ``sel`` picks: a boolean mask or an index array."""
        return self._aligned([column[sel] for column in self.columns()])

    def replace(self, **columns: np.ndarray):
        """The same rows with the named columns swapped."""
        return type(self)(
            *(columns.get(name, getattr(self, name)) for name in self.FIELDS)
        )

    def to_host(self, xp: ArrayBackend):
        """The record on the host: one D2H per column on a device
        backend, the record itself on the host backend."""
        if not xp.is_device:
            return self
        return self._aligned(map(xp.to_host, self.columns()))


def pack_fields(*fields: np.ndarray, xp: ArrayBackend = HOST) -> np.ndarray | None:
    """Fold non-negative sort fields (major first) into one int64 key
    whose order is the fields' lexicographic order, or ``None`` when a
    field is negative or the combined ranges need 62 bits or more.

    The range probes are one-word readbacks (device reductions with a
    scalar result); the packed key stays on ``xp``.
    """
    pack = _pack(fields, xp)
    return None if pack is None else pack[0]


def _pack(fields, xp: ArrayBackend):
    """:func:`pack_fields`, with the key's exclusive upper bound."""
    spans = []
    width = 1
    for f in fields:
        if int(f.min()) < 0:
            return None
        s = int(f.max()) + 1
        spans.append(s)
        width *= s
        if width >= _PACK_LIMIT:
            return None
    packed = xp.astype(fields[0], np.int64, copy=True)
    for f, s in zip(fields[1:], spans[1:]):
        packed *= s
        packed += f
    return packed, width


def run_starts(*fields: np.ndarray, xp: ArrayBackend = HOST) -> np.ndarray:
    """Where the runs of equal rows begin in already-sorted ``fields``:
    position 0 and every position whose row differs from the one
    before it."""
    n = fields[0].size
    if n == 0:
        return xp.empty(0, dtype=np.int64)
    new = xp.zeros(n, dtype=bool)
    new[0] = True
    for f in fields:
        new[1:] |= f[1:] != f[:-1]
    return xp.flatnonzero(new)


def run_ends(starts: np.ndarray, size: int, xp: ArrayBackend = HOST) -> np.ndarray:
    """The exclusive end of each run: the next run's start, ``size``
    for the last."""
    ends = xp.empty(starts.size, dtype=np.int64)
    ends[:-1] = starts[1:]
    ends[-1:] = size
    return ends


def sorted_runs(
    *fields: np.ndarray, xp: ArrayBackend = HOST
) -> tuple[np.ndarray, np.ndarray]:
    """Group rows by ``fields`` (major first).

    Returns ``(order, starts)``: the *stable* permutation that sorts
    the rows — rows with equal fields keep their input order, which is
    what lets callers read "first" and "last" of a run as emission
    order — and the positions in that order where each run of equal
    rows begins.

    Fields that pack (:func:`pack_fields`) sort as one key: when the
    key leaves room below bit 62 for a row index, the index is folded
    into its low bits and the keys themselves are sorted — every key
    distinct, so any sort is the stable order, and a value sort beats
    an argsort — and ``order`` is read back out of the low bits;
    otherwise the packed key is argsorted.  A negative field or ranges
    too wide for one word take the multi-key sort instead.  The choice
    is made from the input alone, and all of them give the same answer.
    """
    if fields[0].size == 0:
        empty = xp.empty(0, dtype=np.int64)
        return empty, empty
    if len(fields) == 1:  # its own key, whatever its sign or range
        packed = fields[0]
    else:
        pack = _pack(fields, xp)
        if pack is None:
            order = xp.lexsort(fields[::-1])
            return order, run_starts(*(f[order] for f in fields), xp=xp)
        packed, width = pack
        bits = int(packed.size - 1).bit_length()
        if width < _PACK_LIMIT >> bits:
            keys = xp.sort((packed << bits) | xp.arange(packed.size, dtype=np.int64))
            return keys & ((1 << bits) - 1), run_starts(keys >> bits, xp=xp)
    order = xp.argsort(packed)
    return order, run_starts(packed[order], xp=xp)


def segment_sum(
    values: np.ndarray, starts: np.ndarray, xp: ArrayBackend = HOST
) -> np.ndarray:
    """Sum of ``values`` over each run beginning at ``starts`` — exact
    int64, as cumulative-sum differences at the run boundaries (a
    weighted ``bincount`` would round-trip through float64)."""
    cs = xp.cumsum(values)
    last = run_ends(starts, values.size, xp=xp) - 1
    return cs[last] - cs[starts] + values[starts]


__all__ = [
    "Rows",
    "pack_fields",
    "run_ends",
    "run_starts",
    "segment_sum",
    "sorted_runs",
]
