"""Unified-memory residency for the simulated device.

Under CUDA managed memory (paper §V-E, Table IX) an access to a
non-resident page faults and migrates over PCIe at ``um_page_fault_ns``
each, with an LRU resident set bounded by device capacity.  The engine's
unified-memory stages touch the pages backing the rows they access and
record the faults on their kernel context; the cost model prices them.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import DeviceError


class PageTracker:
    """LRU resident-set model for unified memory.

    Pages are identified by ``(buffer_name, page_index)``.  ``touch``
    returns the number of faults the access incurred, after admitting the
    pages (evicting least-recently-used pages if over capacity).
    """

    def __init__(self, capacity_pages: int):
        if capacity_pages <= 0:
            raise DeviceError("unified-memory resident set must hold >= 1 page")
        self.capacity_pages = capacity_pages
        self._resident: OrderedDict[tuple[str, int], None] = OrderedDict()

    def touch(self, buffer_name: str, page_indices) -> int:
        """Access the given pages; return how many faulted."""
        faults = 0
        for page in page_indices:
            key = (buffer_name, int(page))
            if key in self._resident:
                self._resident.move_to_end(key)
            else:
                faults += 1
                self._resident[key] = None
                if len(self._resident) > self.capacity_pages:
                    self._resident.popitem(last=False)
        return faults

    def clear(self) -> None:
        self._resident.clear()
