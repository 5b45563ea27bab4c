"""Unit tests for the MMU/access engine against a toy demand-zero kernel."""

import pytest

from repro.common.clock import Clock
from repro.common.errors import FaultError
from repro.common.units import PAGE_SHIFT, PAGE_SIZE
from repro.mem import pte as pte_mod
from repro.mem.frames import FramePool
from repro.mem.page_table import PageTable
from repro.mem.vm import VirtualMemory


class DemandZeroKernel:
    """Maps a fresh zero frame on every fault — the minimal kernel."""

    def __init__(self, pt, frames):
        self.pt = pt
        self.frames = frames
        self.faults = 0

    def handle_fault(self, va, is_write):
        self.faults += 1
        vpn = va >> PAGE_SHIFT
        self.pt.set(vpn, pte_mod.make_local(self.frames.alloc()))


@pytest.fixture()
def vm_setup():
    clock = Clock()
    pt = PageTable()
    frames = FramePool(64)
    vm = VirtualMemory(clock, pt, frames, copy_cost_per_byte=1e-4)
    kernel = DemandZeroKernel(pt, frames)
    vm.attach_kernel(kernel.handle_fault)
    return clock, pt, frames, vm, kernel


class TestAccess:
    def test_write_read_roundtrip(self, vm_setup):
        _, _, _, vm, _ = vm_setup
        vm.write(0x5000, b"hello world")
        assert vm.read(0x5000, 11) == b"hello world"

    def test_cross_page_access(self, vm_setup):
        _, _, _, vm, kernel = vm_setup
        va = 2 * PAGE_SIZE - 3
        vm.write(va, b"abcdef")  # spans two pages
        assert vm.read(va, 6) == b"abcdef"
        assert kernel.faults == 2

    def test_zero_length(self, vm_setup):
        _, _, _, vm, kernel = vm_setup
        assert vm.read(0x5000, 0) == b""
        vm.write(0x5000, b"")
        assert kernel.faults == 0

    def test_negative_size_rejected(self, vm_setup):
        _, _, _, vm, _ = vm_setup
        with pytest.raises(ValueError):
            vm.read(0, -1)

    def test_no_kernel_raises(self):
        vm = VirtualMemory(Clock(), PageTable(), FramePool(4), 1e-4)
        with pytest.raises(FaultError):
            vm.read(0x1000, 1)

    def test_faults_once_per_page(self, vm_setup):
        _, _, _, vm, kernel = vm_setup
        vm.read(0x3000, 8)
        vm.read(0x3000, 8)
        vm.read(0x3008, 8)
        assert kernel.faults == 1

    def test_copy_time_charged(self, vm_setup):
        clock, _, _, vm, _ = vm_setup
        vm.write(0x1000, b"x" * PAGE_SIZE)
        t = clock.now
        vm.read(0x1000, PAGE_SIZE)
        assert clock.now - t == pytest.approx(PAGE_SIZE * 1e-4)

    def test_unserviceable_fault_bounded(self, vm_setup):
        _, _, _, vm, kernel = vm_setup
        kernel.handle_fault = lambda va, w: None
        vm.attach_kernel(kernel.handle_fault)
        with pytest.raises(FaultError):
            vm.read(0x9000, 1)


class TestAccessedDirtyBits:
    def test_read_sets_accessed_only(self, vm_setup):
        _, pt, _, vm, _ = vm_setup
        vm.read(0x1000, 1)
        entry = pt.get(1)
        assert pte_mod.is_accessed(entry)
        assert not pte_mod.is_dirty(entry)

    def test_write_sets_dirty(self, vm_setup):
        _, pt, _, vm, _ = vm_setup
        vm.write(0x1000, b"x")
        assert pte_mod.is_dirty(pt.get(1))

    def test_dirty_set_through_warm_tlb(self, vm_setup):
        """A read warms the TLB clean; a later write must still reach the
        PTE to set the dirty bit (the x86 assist)."""
        _, pt, _, vm, _ = vm_setup
        vm.read(0x1000, 1)
        assert not pte_mod.is_dirty(pt.get(1))
        vm.write(0x1000, b"x")
        assert pte_mod.is_dirty(pt.get(1))

    def test_accessed_reset_after_clear_and_shootdown(self, vm_setup):
        """After the reclaimer clears the accessed bit and shoots down the
        TLB, the next access must set it again."""
        _, pt, _, vm, _ = vm_setup
        vm.read(0x1000, 1)
        pt.set(1, pte_mod.clear_accessed(pt.get(1)))
        vm.tlb.invalidate(1)
        vm.read(0x1000, 1)
        assert pte_mod.is_accessed(pt.get(1))

    def test_touch_faults_without_copy_charge(self, vm_setup):
        clock, pt, _, vm, kernel = vm_setup
        t = clock.now
        vm.touch(0x4000, 3 * PAGE_SIZE)
        assert kernel.faults == 3
        assert clock.now == t  # no copy time for touch
