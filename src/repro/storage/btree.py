"""A B-tree ordered index.

The paper supports TPC-C's range-style transactions only through
pre-resolved keys, because its tables are hash-indexed; it names B-tree
integration as future work ("LTPG can be readily extended to support
range queries, by integrating indexing, such as B-trees").  This module
provides that extension: a textbook in-memory B-tree mapping int64 keys
to row slots, with ordered range scans.

The implementation is a real B-tree (node splits, bounded fan-out),
not a sorted list: the structure matters for the simulated cost model
(index probes cost O(height) node reads) and is property-tested against
a sorted-dict oracle.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import DuplicateKey, KeyNotFound, StorageError

#: Maximum keys per node (fan-out - 1); small enough to exercise splits
#: in tests, large enough to keep trees shallow.
DEFAULT_ORDER = 32


@dataclass
class _Node:
    keys: list[int] = field(default_factory=list)
    values: list[int] = field(default_factory=list)  # leaves only
    children: list["_Node"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children


class BTreeIndex:
    """Unique int64 key -> row slot, with ordered iteration."""

    def __init__(self, order: int = DEFAULT_ORDER):
        if order < 3:
            raise StorageError("B-tree order must be at least 3")
        self._order = order
        self._root = _Node()
        self._size = 0
        self._height = 1

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Tree height in node levels (cost-model input: an index probe
        reads this many nodes)."""
        return self._height

    # -- mutation ------------------------------------------------------------
    def insert(self, key: int, value: int) -> None:
        key = int(key)
        root = self._root
        if len(root.keys) >= self._order:
            new_root = _Node(children=[root])
            self._split_child(new_root, 0)
            self._root = new_root
            self._height += 1
        self._insert_nonfull(self._root, key, int(value))
        self._size += 1

    def _split_child(self, parent: _Node, index: int) -> None:
        child = parent.children[index]
        mid = len(child.keys) // 2
        right = _Node()
        if child.is_leaf:
            # Leaf split: right keeps [mid:], separator = right's first
            # key (B+-style, so every key stays in a leaf).
            right.keys = child.keys[mid:]
            right.values = child.values[mid:]
            child.keys = child.keys[:mid]
            child.values = child.values[:mid]
            separator = right.keys[0]
        else:
            separator = child.keys[mid]
            right.keys = child.keys[mid + 1 :]
            right.children = child.children[mid + 1 :]
            child.keys = child.keys[:mid]
            child.children = child.children[: mid + 1]
        parent.keys.insert(index, separator)
        parent.children.insert(index + 1, right)

    def _insert_nonfull(self, node: _Node, key: int, value: int) -> None:
        while not node.is_leaf:
            index = bisect.bisect_right(node.keys, key)
            child = node.children[index]
            if len(child.keys) >= self._order:
                self._split_child(node, index)
                if key >= node.keys[index]:
                    index += 1
                child = node.children[index]
            node = child
        pos = bisect.bisect_left(node.keys, key)
        if pos < len(node.keys) and node.keys[pos] == key:
            raise DuplicateKey(f"key {key} already in B-tree")
        node.keys.insert(pos, key)
        node.values.insert(pos, value)

    # -- queries ------------------------------------------------------------
    def lookup(self, key: int) -> int:
        key = int(key)
        node = self._root
        while not node.is_leaf:
            node = node.children[bisect.bisect_right(node.keys, key)]
        pos = bisect.bisect_left(node.keys, key)
        if pos < len(node.keys) and node.keys[pos] == key:
            return node.values[pos]
        raise KeyNotFound(f"key {key} not found in B-tree")

    def get(self, key: int) -> int | None:
        try:
            return self.lookup(key)
        except KeyNotFound:
            return None

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def range(self, lo: int, hi: int) -> Iterator[tuple[int, int]]:
        """(key, value) pairs with lo <= key <= hi, in key order."""
        if lo > hi:
            return
        yield from self._range_node(self._root, int(lo), int(hi))

    def _range_node(self, node: _Node, lo: int, hi: int) -> Iterator[tuple[int, int]]:
        if node.is_leaf:
            start = bisect.bisect_left(node.keys, lo)
            for pos in range(start, len(node.keys)):
                if node.keys[pos] > hi:
                    return
                yield node.keys[pos], node.values[pos]
            return
        index = bisect.bisect_right(node.keys, lo)
        for pos in range(index, len(node.children)):
            yield from self._range_node(node.children[pos], lo, hi)
            if pos < len(node.keys) and node.keys[pos] > hi:
                return

    def items(self) -> Iterator[tuple[int, int]]:
        yield from self.range(-(2**62), 2**62)

    def copy(self) -> "BTreeIndex":
        clone = BTreeIndex(self._order)
        for key, value in self.items():
            clone.insert(key, value)
        return clone
