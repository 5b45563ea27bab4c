"""The memory node: a big registered region served by the RNIC.

The paper's memory node is a thin server — after setup, the RNIC services
all one-sided reads and writes without host involvement (§5). Accordingly
this model is a flat byte store addressed by offset; allocation of remote
page frames (by the computing node's kernel) is a simple bump/free-list
allocator over page-sized slots.

The 2 MiB huge-page optimization of §5 affects only the remote NIC's page
table walk cost, which is folded into the fabric base latency.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from repro.common.errors import OutOfMemoryError
from repro.common.units import PAGE_SHIFT, PAGE_SIZE


class NodeFailedError(Exception):
    """Raised when a one-sided operation hits a failed memory node."""


class MemoryNode:
    """Remote memory pool with page-slot allocation and raw byte access."""

    __slots__ = ("capacity", "name", "_store", "_free_slots", "_slot_free",
                 "total_slots", "_failed", "_failure_listeners")

    def __init__(self, capacity_bytes: int, name: str = "memnode") -> None:
        if capacity_bytes <= 0 or capacity_bytes % PAGE_SIZE:
            raise ValueError("capacity must be a positive multiple of the page size")
        self.capacity = capacity_bytes
        self.name = name
        # numpy zeros is calloc-backed: a multi-GiB registered region
        # costs nothing until pages are actually written, where a
        # bytearray would memset the whole capacity at boot. The store
        # is a byte view of it, so payloads are sliced in and out as
        # they are, never wrapped in numpy arrays.
        self._store = memoryview(np.zeros(capacity_bytes, dtype=np.uint8))
        total_slots = capacity_bytes >> PAGE_SHIFT
        self._free_slots: List[int] = list(range(total_slots - 1, -1, -1))
        # One byte per slot (1 = free) so free_slot can reject double
        # frees in O(1) without a Python set over 100k+ slot ids.
        self._slot_free = bytearray(b"\x01" * total_slots)
        self.total_slots = total_slots
        self._failed = False
        self._failure_listeners: List[Callable[[], None]] = []

    # -- failure injection (for fault-tolerance experiments) ---------------

    def add_failure_listener(self, listener: Callable[[], None]) -> None:
        """Subscribe to node death. Queue pairs register here so that a
        crash with verbs in flight is observed by the issuer (the
        response is lost -> timeout/error), never silently absorbed."""
        self._failure_listeners.append(listener)

    def fail(self) -> None:
        """Simulate the node crashing: all subsequent IO raises, and every
        in-flight operation's response is lost (listeners are told)."""
        already_down = self._failed
        self._failed = True
        if not already_down:
            for listener in self._failure_listeners:
                listener()

    def recover(self) -> None:
        """Bring the node back (its memory content is as it was)."""
        self._failed = False

    @property
    def failed(self) -> bool:
        return self._failed

    def _check_alive(self) -> None:
        if self._failed:
            raise NodeFailedError(f"memory node {self.name} is down")

    # -- page-slot allocation (control path, done once per page) ----------

    @property
    def free_slots(self) -> int:
        return len(self._free_slots)

    def alloc_slot(self) -> int:
        """Reserve one remote page frame; returns its remote pfn."""
        if not self._free_slots:
            raise OutOfMemoryError("memory node exhausted")
        slot = self._free_slots.pop()
        self._slot_free[slot] = 0
        return slot

    def free_slot(self, remote_pfn: int) -> None:
        if not 0 <= remote_pfn < self.total_slots:
            raise ValueError(f"remote pfn {remote_pfn} out of range")
        if self._slot_free[remote_pfn]:
            # A double free (or a free of a never-allocated slot) would
            # put the pfn on the free list twice and hand the same remote
            # frame to two pages.
            raise ValueError(
                f"remote pfn {remote_pfn} is not allocated (double free?)")
        self._slot_free[remote_pfn] = 1
        self._free_slots.append(remote_pfn)

    # An instance method so that clustered backends (repro.mem.cluster)
    # can define their own slot layouts behind the same interface.
    def slot_offset(self, remote_pfn: int) -> int:
        """Byte offset of a remote page frame within the registered region."""
        return remote_pfn << PAGE_SHIFT

    # -- one-sided data path (what the RNIC does) --------------------------

    def read_bytes(self, offset: int, size: int) -> bytes:
        self._check_alive()
        if offset < 0 or offset + size > self.capacity:
            raise ValueError(f"remote read [{offset}, {offset + size}) out of bounds")
        return self._store[offset:offset + size].tobytes()

    def write_bytes(self, offset: int, data: bytes) -> None:
        self._check_alive()
        if offset < 0 or offset + len(data) > self.capacity:
            raise ValueError(f"remote write [{offset}, {offset + len(data)}) out of bounds")
        self._store[offset:offset + len(data)] = data
