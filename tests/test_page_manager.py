"""Unit-level tests for the DiLOS page manager (§4.4): watermarks,
cleaning, clock-hand second chances, and the guided-paging vector
lifecycle."""

import pytest

from repro.common.units import MIB, PAGE_SIZE
from repro.alloc import Mimalloc, MimallocGuide
from repro.core import DilosConfig, DilosSystem
from repro.mem import pte as pte_mod


def make_system(local_mib=1.0, **kwargs):
    kwargs.setdefault("prefetcher", "none")
    return DilosSystem(DilosConfig(local_mem_bytes=int(local_mib * MIB),
                                   remote_mem_bytes=64 * MIB, **kwargs))


class TestWatermarks:
    def test_scaled_with_pool(self):
        small = make_system(local_mib=0.25)
        large = make_system(local_mib=16)
        assert small.kernel.page_manager.high_watermark < \
            large.kernel.page_manager.high_watermark

    def test_never_reserves_most_of_a_tiny_pool(self):
        system = make_system(local_mib=0.1875)  # 48 frames
        manager = system.kernel.page_manager
        assert manager.high_watermark <= system.frames.total_frames // 4

    def test_low_below_high(self):
        for mib in (0.25, 1, 4, 64):
            manager = make_system(local_mib=mib).kernel.page_manager
            assert 0 < manager.low_watermark < manager.high_watermark

    def test_reclaimer_maintains_free_reserve(self):
        system = make_system(local_mib=1)
        region = system.mmap(4 * MIB)
        for i in range(region.size // PAGE_SIZE):
            system.memory.write(region.base + i * PAGE_SIZE, b"x")
        system.clock.advance(2000)
        manager = system.kernel.page_manager
        assert system.frames.free_frames >= manager.low_watermark


class TestCleaner:
    def test_dirty_pages_written_back_in_background(self):
        system = make_system(local_mib=4)
        region = system.mmap(1 * MIB)
        pages = region.size // PAGE_SIZE
        for i in range(pages):
            system.memory.write(region.base + i * PAGE_SIZE, b"dirty")
        system.clock.advance(5000)
        # No memory pressure, yet the cleaner proactively wrote everything.
        assert system.kernel.registry.value("reclaim.pages_cleaned") == pages
        assert system.kernel.comm.stats.bytes_written > 0

    def test_cleaning_clears_dirty_bit(self):
        system = make_system(local_mib=4)
        region = system.mmap(64 * PAGE_SIZE)
        system.memory.write(region.base, b"d")
        vpn = region.base >> 12
        assert pte_mod.is_dirty(system.addr_space.page_table.get(vpn))
        system.clock.advance(5000)
        assert not pte_mod.is_dirty(system.addr_space.page_table.get(vpn))

    def test_rewrite_after_clean_redirties(self):
        system = make_system(local_mib=4)
        region = system.mmap(64 * PAGE_SIZE)
        system.memory.write(region.base, b"first")
        system.clock.advance(5000)
        system.memory.write(region.base, b"second")
        vpn = region.base >> 12
        assert pte_mod.is_dirty(system.addr_space.page_table.get(vpn))


class TestClockAlgorithm:
    def test_hot_pages_survive_eviction(self):
        """Pages touched every round keep their second chance."""
        system = make_system(local_mib=1)
        hot = system.mmap(16 * PAGE_SIZE, name="hot")
        cold = system.mmap(4 * MIB, name="cold")
        for i in range(hot.size // PAGE_SIZE):
            system.memory.write(hot.base + i * PAGE_SIZE, b"h")
        # Stream cold pages while re-touching the hot set.
        for i in range(cold.size // PAGE_SIZE):
            system.memory.write(cold.base + i * PAGE_SIZE, b"c")
            if i % 4 == 0:
                for j in range(hot.size // PAGE_SIZE):
                    system.memory.read(hot.base + j * PAGE_SIZE, 1)
        pt = system.addr_space.page_table
        resident = sum(
            1 for j in range(hot.size // PAGE_SIZE)
            if pte_mod.is_present(pt.get((hot.base >> 12) + j)))
        assert resident >= hot.size // PAGE_SIZE // 2


class TestGuidedVectorLifecycle:
    def build(self):
        system = make_system(local_mib=0.5)
        alloc = Mimalloc(system, arena_bytes=16 * MIB)
        system.kernel.register_allocator_guide(MimallocGuide(alloc))
        return system, alloc

    def test_action_vector_recorded_and_refreshed(self):
        system, alloc = self.build()
        manager = system.kernel.page_manager
        vas = [alloc.malloc(256) for _ in range(16)]  # one page's worth
        vpn = vas[0] >> 12
        for va in vas:
            system.memory.write(va, b"v" * 256)
        # Force clean + evict of everything.
        scratch = system.mmap(2 * MIB)
        for i in range(scratch.size // PAGE_SIZE):
            system.memory.write(scratch.base + i * PAGE_SIZE, b"s")
        system.clock.advance(8000)
        entry = system.addr_space.page_table.get(vpn)
        assert pte_mod.classify(entry) is pte_mod.Tag.ACTION
        full_vector = manager.action_vector(vpn)
        covered = sum(length for _s, length in full_vector)
        assert covered >= 16 * 256
        # Free most chunks; the *eviction-time* vector must shrink.
        for va in vas[2:]:
            alloc.free(va)
        system.memory.read(vas[0], 1)  # fault the page back in
        for i in range(scratch.size // PAGE_SIZE):
            system.memory.write(scratch.base + i * PAGE_SIZE, b"t")
        system.clock.advance(8000)
        entry = system.addr_space.page_table.get(vpn)
        assert pte_mod.classify(entry) is pte_mod.Tag.ACTION
        shrunk = sum(length for _s, length in manager.action_vector(vpn))
        assert shrunk < covered

    def test_vector_capped_at_three_segments(self):
        system, alloc = self.build()
        manager = system.kernel.page_manager
        vas = [alloc.malloc(64) for _ in range(60)]
        for va in vas:
            system.memory.write(va, b"z" * 64)
        # Fragment heavily: free every other chunk.
        for va in vas[::2]:
            alloc.free(va)
        scratch = system.mmap(2 * MIB)
        for i in range(scratch.size // PAGE_SIZE):
            system.memory.write(scratch.base + i * PAGE_SIZE, b"s")
        system.clock.advance(8000)
        vpn = vas[1] >> 12
        if pte_mod.classify(system.addr_space.page_table.get(vpn)) is \
                pte_mod.Tag.ACTION:
            assert len(manager.action_vector(vpn)) <= 3

    def test_action_vector_missing_raises(self):
        system, _ = self.build()
        with pytest.raises(ValueError):
            system.kernel.page_manager.action_vector(0x9999)
