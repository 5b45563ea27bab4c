"""The memory node: a big registered region served by the RNIC.

The paper's memory node is a thin server — after setup, the RNIC services
all one-sided reads and writes without host involvement (§5). Accordingly
this model is a flat byte store addressed by offset; allocation of remote
page frames (by the computing node's kernel) is a bump pointer plus a
stack of freed page-sized slots, so booting a node builds nothing per
slot but one byte of allocation map.

The 2 MiB huge-page optimization of §5 affects only the remote NIC's page
table walk cost, which is folded into the fabric base latency.
"""

from __future__ import annotations

import mmap
from typing import Callable, List

from repro.common.errors import OutOfMemoryError
from repro.common.units import PAGE_SHIFT, PAGE_SIZE


class NodeFailedError(Exception):
    """Raised when a one-sided operation hits a failed memory node."""


class MemoryNode:
    """Remote memory pool with page-slot allocation and raw byte access."""

    __slots__ = ("capacity", "name", "_store", "_next_slot", "_freed",
                 "_allocated", "total_slots", "_failed", "_failure_listeners")

    def __init__(self, capacity_bytes: int, name: str = "memnode") -> None:
        if capacity_bytes <= 0 or capacity_bytes % PAGE_SIZE:
            raise ValueError("capacity must be a positive multiple of the page size")
        self.capacity = capacity_bytes
        self.name = name
        # A private anonymous mapping: the kernel hands out zero pages
        # and commits each one on first write, so a multi-GiB registered
        # region costs nothing at boot (a bytearray would memset all of
        # it). MAP_PRIVATE keeps it copy-on-write across fork, so a
        # forked worker never writes into its parent's node. Payloads
        # are sliced in and out of a byte view as they are.
        self._store = memoryview(mmap.mmap(
            -1, capacity_bytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS))
        total_slots = capacity_bytes >> PAGE_SHIFT
        # Slots at or above the bump pointer were never handed out; freed
        # ones go on a stack and are reused last-freed-first. Allocation
        # order is therefore 0, 1, 2, ... with frees reused first, and
        # boot builds no per-slot Python objects.
        self._next_slot = 0
        self._freed: List[int] = []
        # One byte per slot (1 = allocated), zero-filled at boot, so
        # free_slot rejects double frees and frees of never-allocated
        # slots in O(1).
        self._allocated = bytearray(total_slots)
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
        return self.total_slots - self._next_slot + len(self._freed)

    def alloc_slot(self) -> int:
        """Reserve one remote page frame; returns its remote pfn."""
        if self._freed:
            slot = self._freed.pop()
        else:
            slot = self._next_slot
            if slot == self.total_slots:
                raise OutOfMemoryError("memory node exhausted")
            self._next_slot = slot + 1
        self._allocated[slot] = 1
        return slot

    def free_slot(self, remote_pfn: int) -> None:
        if not 0 <= remote_pfn < self.total_slots:
            raise ValueError(f"remote pfn {remote_pfn} out of range")
        if not self._allocated[remote_pfn]:
            # A double free (or a free of a never-allocated slot) would
            # put the pfn on the stack twice, or hand out a slot the bump
            # pointer will reach again, giving one remote frame to two
            # pages.
            raise ValueError(
                f"remote pfn {remote_pfn} is not allocated (double free?)")
        self._allocated[remote_pfn] = 0
        self._freed.append(remote_pfn)

    # An instance method so that clustered backends (repro.mem.cluster)
    # can define their own slot layouts behind the same interface.
    def slot_offset(self, remote_pfn: int) -> int:
        """Byte offset of a remote page frame within the registered region."""
        return remote_pfn << PAGE_SHIFT

    # -- one-sided data path (what the RNIC does) --------------------------

    def read_bytes(self, offset: int, size: int) -> bytes:
        self._check_alive()
        if offset < 0 or size < 0 or offset + size > self.capacity:
            raise ValueError(f"remote read [{offset}, {offset + size}) out of bounds")
        return self._store[offset:offset + size].tobytes()

    def write_bytes(self, offset: int, data: bytes) -> None:
        self._check_alive()
        if offset < 0 or offset + len(data) > self.capacity:
            raise ValueError(f"remote write [{offset}, {offset + len(data)}) out of bounds")
        self._store[offset:offset + len(data)] = data
