"""A per-batch multi-version store: BOHM's bookkeeping substrate.

BOHM's first phase inserts, for every write in the batch, a placeholder
version tagged with the writer's TID; its second phase resolves every
read to the newest version with TID strictly below the reader's (falling
through to the pre-batch "base" version).  This module implements that
structure for real — the BOHM engine uses it both to validate version
visibility and to extract the chain statistics that drive its cost.  A
version is its writer's TID and nothing more: the cost reads chain
lengths and visibility, never a value.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

#: Sentinel TID of the pre-batch base version.
BASE_TID = -1


@dataclass
class VersionChain:
    """Versions of one item, ordered by TID."""

    tids: list[int] = field(default_factory=list)

    def insert_placeholder(self, tid: int) -> None:
        pos = bisect.bisect_left(self.tids, tid)
        if pos < len(self.tids) and self.tids[pos] == tid:
            return  # one version per (item, txn)
        self.tids.insert(pos, tid)

    def visible_tid(self, reader_tid: int) -> int:
        """TID of the version a reader sees (BASE_TID if none)."""
        pos = bisect.bisect_left(self.tids, reader_tid)
        if pos == 0:
            return BASE_TID
        return self.tids[pos - 1]

    def __len__(self) -> int:
        return len(self.tids)


class MultiVersionStore:
    """Item -> version chain, for one batch."""

    def __init__(self) -> None:
        self._chains: dict[tuple, VersionChain] = {}

    def chain(self, item: tuple) -> VersionChain:
        c = self._chains.get(item)
        if c is None:
            c = VersionChain()
            self._chains[item] = c
        return c

    def insert_placeholder(self, item: tuple, tid: int) -> None:
        self.chain(item).insert_placeholder(tid)

    def visible_tid(self, item: tuple, reader_tid: int) -> int:
        c = self._chains.get(item)
        if c is None:
            return BASE_TID
        return c.visible_tid(reader_tid)

    def max_chain(self) -> int:
        if not self._chains:
            return 0
        return max(len(c) for c in self._chains.values())
