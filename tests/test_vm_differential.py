"""Differential test: the coalesced VM fast path vs a naive reference.

:class:`~repro.mem.vm.VirtualMemory` inlines a coalesced TLB-hit loop in
``read``/``write``/``touch``. This suite replays random access sequences —
reads, writes, touches, TLB shootdowns, accessed-bit clears, and page
evictions — through the optimized implementation and through
:class:`NaiveVirtualMemory`, a line-for-line transcription of the seed
per-page loops. Both run over identical page-table/frame/TLB stacks with a
tiny TLB (forcing LRU churn) and a tiny frame pool (forcing real faults
and evictions), and must agree on:

* every byte returned by every read,
* the final contents of every page (resident or evicted),
* fault counts, TLB hit/miss totals, and the simulated clock — exactly,
  not approximately.
"""

from __future__ import annotations

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import Clock
from repro.common.units import PAGE_SHIFT, PAGE_SIZE
from repro.mem import pte as pte_mod
from repro.mem.frames import FramePool
from repro.mem.page_table import PageTable
from repro.mem.tlb import Tlb
from repro.mem.vm import VirtualMemory, _MAX_FAULT_RETRIES

N_PAGES = 16
TLB_CAPACITY = 4
MAX_RESIDENT = 6
COPY_COST = 1.0e-4


class NaiveVirtualMemory:
    """The seed (pre-coalescing) access loops, kept as the reference."""

    def __init__(self, clock, page_table, frames, copy_cost_per_byte):
        self._clock = clock
        self._pt = page_table
        self._frames = frames
        self._copy_cost = copy_cost_per_byte
        self.tlb = Tlb()
        self._fault_handler = None

    def attach_kernel(self, handler):
        self._fault_handler = handler

    def _translate(self, vpn, is_write):
        entry = self.tlb.lookup(vpn)
        if entry is not None:
            frame, writable, dirty_set = entry
            if not is_write or dirty_set:
                return frame
            pte = self._pt.get(vpn)
            self._pt.set(vpn, pte_mod.set_dirty(pte))
            self.tlb.mark_dirty_set(vpn)
            return frame
        for _attempt in range(_MAX_FAULT_RETRIES):
            pte = self._pt.get(vpn)
            if pte_mod.is_present(pte):
                frame = pte_mod.frame_of(pte)
                new = pte_mod.set_accessed(pte)
                if is_write:
                    new = pte_mod.set_dirty(new)
                if new != pte:
                    self._pt.set(vpn, new)
                self.tlb.fill(vpn, frame,
                              writable=bool(new & pte_mod.PTE_WRITE),
                              dirty_set=pte_mod.is_dirty(new))
                return frame
            self._fault_handler(vpn << PAGE_SHIFT, is_write)
        raise AssertionError("page not present after retries")

    def _chunks(self, va, size):
        while size > 0:
            vpn = va >> PAGE_SHIFT
            offset = va & (PAGE_SIZE - 1)
            length = min(PAGE_SIZE - offset, size)
            yield vpn, offset, length
            va += length
            size -= length

    def read(self, va, size):
        if size == 0:
            return b""
        parts = []
        for vpn, offset, length in self._chunks(va, size):
            frame = self._translate(vpn, is_write=False)
            parts.append(bytes(self._frames.data(frame)[offset:offset + length]))
        self._clock.advance(size * self._copy_cost)
        return b"".join(parts) if len(parts) > 1 else parts[0]

    def write(self, va, data):
        size = len(data)
        if size == 0:
            return
        cursor = 0
        for vpn, offset, length in self._chunks(va, size):
            frame = self._translate(vpn, is_write=True)
            self._frames.data(frame)[offset:offset + length] = \
                data[cursor:cursor + length]
            cursor += length
        self._clock.advance(size * self._copy_cost)

    def touch(self, va, size):
        if size <= 0:
            return
        for vpn, _offset, _length in self._chunks(va, size):
            self._translate(vpn, is_write=False)


class SimplePager:
    """A deterministic demand pager: map on fault, FIFO-evict when full.

    Pages live either in a frame (resident) or in ``backing`` (evicted);
    eviction always writes back, unmaps the PTE, and shoots down the TLB
    entry — the interactions the coalesced path must survive.
    """

    def __init__(self, vm, page_table, frames):
        self._vm = vm
        self._pt = page_table
        self._frames = frames
        self.backing = {}
        self.resident = OrderedDict()  # vpn -> frame, in map order
        self.faults = 0

    def handle_fault(self, va, is_write):
        vpn = va >> PAGE_SHIFT
        self.faults += 1
        if len(self.resident) >= MAX_RESIDENT:
            old_vpn, old_frame = self.resident.popitem(last=False)
            self.evict(old_vpn, old_frame)
        frame = self._frames.alloc()
        data = self.backing.get(vpn)
        if data is not None:
            self._frames.data(frame)[:] = data
        self._pt.set(vpn, pte_mod.make_local(frame, writable=True))
        self.resident[vpn] = frame

    def evict(self, vpn, frame):
        self.backing[vpn] = bytes(self._frames.data(frame))
        self._pt.set(vpn, 0)
        self._vm.tlb.invalidate(vpn)
        self._frames.free(frame)

    def evict_vpn(self, vpn):
        frame = self.resident.pop(vpn, None)
        if frame is not None:
            self.evict(vpn, frame)

    def shootdown(self, vpn):
        """Clear the accessed bit and invalidate the TLB entry, the way
        the hit tracker / clock-hand rotation does."""
        pte = self._pt.get(vpn)
        if pte_mod.is_present(pte):
            self._pt.set(vpn, pte_mod.clear_accessed(pte))
        self._vm.tlb.invalidate(vpn)

    def page_bytes(self, vpn):
        """Current contents of ``vpn``, wherever it lives."""
        frame = self.resident.get(vpn)
        if frame is not None:
            return bytes(self._frames.data(frame))
        return self.backing.get(vpn, bytes(PAGE_SIZE))


def _build(vm_cls):
    clock = Clock()
    pt = PageTable()
    frames = FramePool(MAX_RESIDENT + 2)
    vm = vm_cls(clock, pt, frames, COPY_COST)
    vm.tlb = Tlb(TLB_CAPACITY)
    pager = SimplePager(vm, pt, frames)
    vm.attach_kernel(pager.handle_fault)
    return vm, pager, clock


_SPAN = N_PAGES * PAGE_SIZE

_op = st.one_of(
    st.tuples(st.just("read"),
              st.integers(0, _SPAN - 1),
              st.integers(1, 3 * PAGE_SIZE)),
    st.tuples(st.just("write"),
              st.integers(0, _SPAN - 1),
              st.integers(1, 3 * PAGE_SIZE),
              st.integers(0, 255)),
    st.tuples(st.just("touch"),
              st.integers(0, _SPAN - 1),
              st.integers(1, 4 * PAGE_SIZE)),
    st.tuples(st.just("shootdown"), st.integers(0, N_PAGES - 1)),
    st.tuples(st.just("evict"), st.integers(0, N_PAGES - 1)),
)


def _apply(op, vm, pager):
    kind = op[0]
    if kind == "read":
        _, va, size = op
        size = min(size, _SPAN - va)
        return vm.read(va, size)
    if kind == "write":
        _, va, size, fill = op
        size = min(size, _SPAN - va)
        data = bytes((fill + i) & 0xFF for i in range(size))
        vm.write(va, data)
        return None
    if kind == "touch":
        _, va, size = op
        size = min(size, _SPAN - va)
        vm.touch(va, size)
        return None
    if kind == "shootdown":
        pager.shootdown(op[1])
        return None
    pager.evict_vpn(op[1])
    return None


@settings(max_examples=60, deadline=None)
@given(st.lists(_op, max_size=50))
def test_optimized_vm_matches_naive_reference(ops):
    fast_vm, fast_pager, fast_clock = _build(VirtualMemory)
    ref_vm, ref_pager, ref_clock = _build(NaiveVirtualMemory)

    for op in ops:
        fast_result = _apply(op, fast_vm, fast_pager)
        ref_result = _apply(op, ref_vm, ref_pager)
        assert fast_result == ref_result, f"read bytes diverged on {op}"

    assert fast_clock.now == ref_clock.now
    assert fast_pager.faults == ref_pager.faults
    assert fast_vm.tlb.hits == ref_vm.tlb.hits
    assert fast_vm.tlb.misses == ref_vm.tlb.misses
    assert list(fast_vm.tlb.entries) == list(ref_vm.tlb.entries)
    for vpn in range(N_PAGES):
        assert fast_pager.page_bytes(vpn) == ref_pager.page_bytes(vpn), (
            f"page {vpn} contents diverged")
        assert fast_vm._pt.get(vpn) == ref_vm._pt.get(vpn), (
            f"PTE {vpn} diverged")
