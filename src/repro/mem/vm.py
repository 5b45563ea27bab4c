"""The MMU model: virtual loads and stores with faulting.

:class:`VirtualMemory` is the only way applications touch data. Each access
is split at page boundaries; each page is translated through the TLB and
page table; non-present PTEs dispatch to the attached kernel's fault handler
(DiLOS or Fastswap), after which the access retries. Accessed and dirty bits
are maintained the way x86 hardware does: accessed set on TLB fill, dirty
set on the first write through a clean translation.

CPU time is charged per byte moved (``cpu_copy_per_byte``), so computation
and fetch pipelines interact realistically with prefetching.

The per-page loops are the hottest code in the simulator, so ``read``,
``write`` and ``touch`` inline the pure-TLB-hit case (present entry; for
writes, writable with the dirty bit already set) against locally bound
lookups, falling back to :meth:`VirtualMemory._translate` for everything
else. The fast path produces byte-for-byte identical accounting to the
per-page path — one TLB hit count and one LRU refresh per page, misses and
protection checks through ``_translate`` — and the clock is still charged
exactly once per call, after the loop. ``tests/test_golden_master.py`` and
the Hypothesis differential suite pin this equivalence.
"""

from __future__ import annotations

from typing import Callable

from repro.common.clock import Clock
from repro.common.errors import FaultError, ProtectionError
from repro.common.stats import Counter
from repro.common.units import PAGE_SHIFT, PAGE_SIZE
from repro.mem import batch
from repro.mem import pte as pte_mod
from repro.mem.frames import FramePool
from repro.mem.page_table import PageTable
from repro.mem.tlb import Tlb

#: Fault handler signature: (faulting va, is_write) -> None.
FaultHandler = Callable[[int, bool], None]

_MAX_FAULT_RETRIES = 4
_PAGE_MASK = PAGE_SIZE - 1
_PRESENT = pte_mod.PTE_PRESENT
_WRITE = pte_mod.PTE_WRITE
_ACCESSED = pte_mod.PTE_ACCESSED
_DIRTY = pte_mod.PTE_DIRTY
_ACCESSED_DIRTY = _ACCESSED | _DIRTY


class VirtualMemory:
    """Byte-granular load/store engine over the paged address space."""

    __slots__ = ("_clock", "_pt", "_frames", "_copy_cost", "tlb",
                 "counters", "_fault_handler")

    def __init__(self, clock: Clock, page_table: PageTable,
                 frames: FramePool, copy_cost_per_byte: float) -> None:
        self._clock = clock
        self._pt = page_table
        self._frames = frames
        self._copy_cost = copy_cost_per_byte
        self.tlb = Tlb()
        self.counters = Counter()
        self._fault_handler: FaultHandler = self._no_kernel

    @staticmethod
    def _no_kernel(va: int, is_write: bool) -> None:
        raise FaultError(f"page fault at {va:#x} with no kernel attached")

    def attach_kernel(self, handler: FaultHandler) -> None:
        """Install the kernel's page fault handler."""
        self._fault_handler = handler

    # -- translation ------------------------------------------------------

    def _translate(self, vpn: int, is_write: bool) -> int:
        """Return the local frame for ``vpn``, faulting as needed.

        Runs on every TLB miss, so :meth:`Tlb.lookup` and the
        :mod:`repro.mem.pte` bit helpers are written out inline.
        """
        tlb = self.tlb
        entry = tlb.entries.get(vpn)
        if entry is not None:
            tlb.entries.move_to_end(vpn)
            tlb.hits += 1
            frame, writable, dirty_set = entry
            if is_write and not writable:
                raise ProtectionError(
                    f"write to read-only page {vpn:#x}")
            if not is_write or dirty_set:
                return frame
            # First write through a clean translation: set the PTE dirty
            # bit (a hardware-assisted walk on x86).
            pte = self._pt.get(vpn)
            self._pt.set(vpn, pte | _DIRTY)
            tlb.mark_dirty_set(vpn)
            return frame
        tlb.misses += 1

        pt = self._pt
        for _attempt in range(_MAX_FAULT_RETRIES):
            pte = pt.get(vpn)
            if pte & _PRESENT:
                if is_write:
                    if not pte & _WRITE:
                        raise ProtectionError(
                            f"write to read-only page {vpn:#x}")
                    new = pte | _ACCESSED_DIRTY
                else:
                    new = pte | _ACCESSED
                if new != pte:
                    pt.set(vpn, new)
                frame = pte >> PAGE_SHIFT
                tlb.fill(vpn, frame, writable=bool(new & _WRITE),
                         dirty_set=bool(new & _DIRTY))
                return frame
            self._fault_handler(vpn << PAGE_SHIFT, is_write)

        raise FaultError(
            f"page {vpn:#x} still not present after "
            f"{_MAX_FAULT_RETRIES} fault retries")

    # -- data access --------------------------------------------------------

    def read(self, va: int, size: int) -> bytes:
        """Load ``size`` bytes at ``va`` (may fault per page)."""
        if size < 0:
            raise ValueError("negative read size")
        if size == 0:
            return b""
        tlb = self.tlb
        tlb_get = tlb.entries.get
        tlb_move = tlb.entries.move_to_end
        frame_bufs = self._frames._data
        translate = self._translate
        parts = []
        append = parts.append
        remaining = size
        hits = 0
        while remaining > 0:
            vpn = va >> PAGE_SHIFT
            offset = va & _PAGE_MASK
            length = PAGE_SIZE - offset
            if length > remaining:
                length = remaining
            entry = tlb_get(vpn)
            if entry is not None:
                tlb_move(vpn)
                hits += 1
                frame = entry[0]
            else:
                # Flush accrued hits before the slow path so accounting is
                # exact even if translation raises mid-access.
                tlb.hits += hits
                hits = 0
                frame = translate(vpn, False)
            append(bytes(frame_bufs[frame][offset:offset + length]))
            va += length
            remaining -= length
        tlb.hits += hits
        self._clock.advance(size * self._copy_cost)
        self.counters.add("bytes_read", size)
        return b"".join(parts) if len(parts) > 1 else parts[0]

    def write(self, va: int, data: bytes) -> None:
        """Store ``data`` at ``va`` (may fault per page)."""
        size = len(data)
        if size == 0:
            return
        tlb = self.tlb
        tlb_get = tlb.entries.get
        tlb_move = tlb.entries.move_to_end
        frame_bufs = self._frames._data
        translate = self._translate
        cursor = 0
        remaining = size
        hits = 0
        while remaining > 0:
            vpn = va >> PAGE_SHIFT
            offset = va & _PAGE_MASK
            length = PAGE_SIZE - offset
            if length > remaining:
                length = remaining
            entry = tlb_get(vpn)
            # A write is a pure hit only once the translation is writable
            # and its dirty bit is set; the first write through a clean
            # translation must walk the PTE, so it takes the slow path.
            if entry is not None and entry[1] and entry[2]:
                tlb_move(vpn)
                hits += 1
                frame = entry[0]
            else:
                tlb.hits += hits
                hits = 0
                frame = translate(vpn, True)
            frame_bufs[frame][offset:offset + length] = \
                data[cursor:cursor + length]
            cursor += length
            va += length
            remaining -= length
        tlb.hits += hits
        self._clock.advance(size * self._copy_cost)
        self.counters.add("bytes_written", size)

    # -- batch access (repro.mem.batch) ---------------------------------------
    #
    # The engine's functions, as methods: element ``i`` of a batch
    # behaves exactly like the scalar ``read``/``write`` call it stands
    # for, and ``read_into``/``write_from`` like one whole-run call.
    read_into = batch.read_span_into
    write_from = batch.write_span_from
    read_batch = batch.read_batch
    write_batch = batch.write_batch
    apply_trace = batch.apply_trace

    def touch(self, va: int, size: int, is_write: bool = False) -> None:
        """Fault in (and mark accessed/dirty) every page of a range without
        moving bytes — used by workloads whose computation is modeled by an
        explicit CPU charge rather than byte-by-byte copies."""
        if size <= 0:
            return
        vpn = va >> PAGE_SHIFT
        last = (va + size - 1) >> PAGE_SHIFT
        tlb = self.tlb
        translate = self._translate
        while vpn <= last:
            vpn += tlb.lookup_run(vpn, last - vpn + 1, is_write)
            if vpn <= last:
                translate(vpn, is_write)
                vpn += 1

    # -- typed helpers ----------------------------------------------------

    def read_u64(self, va: int) -> int:
        return int.from_bytes(self.read(va, 8), "little")

    def write_u64(self, va: int, value: int) -> None:
        self.write(va, (value & (2 ** 64 - 1)).to_bytes(8, "little"))

    def read_u32(self, va: int) -> int:
        return int.from_bytes(self.read(va, 4), "little")

    def write_u32(self, va: int, value: int) -> None:
        self.write(va, (value & (2 ** 32 - 1)).to_bytes(4, "little"))
