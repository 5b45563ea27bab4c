"""Unit tests for guide plumbing: range coalescing and subpage fetches."""

import pytest

from repro.common.units import MIB, PAGE_SHIFT, PAGE_SIZE
from repro.core import DilosConfig, DilosSystem, coalesce_ranges
from repro.mem import pte as pte_mod


class TestCoalesce:
    def test_empty(self):
        assert coalesce_ranges([], 3) == []

    def test_single(self):
        assert coalesce_ranges([(0, 16)], 3) == [(0, 16)]

    def test_under_limit_untouched(self):
        ranges = [(0, 16), (100, 16), (200, 16)]
        assert coalesce_ranges(ranges, 3) == ranges

    def test_adjacent_merged(self):
        assert coalesce_ranges([(0, 16), (16, 16)], 3) == [(0, 32)]

    def test_overlapping_merged(self):
        assert coalesce_ranges([(0, 32), (16, 32)], 3) == [(0, 48)]

    def test_unsorted_input(self):
        assert coalesce_ranges([(100, 16), (0, 16)], 3) == [(0, 16), (100, 16)]

    def test_merges_smallest_gap_first(self):
        ranges = [(0, 16), (32, 16), (1000, 16), (2000, 16)]
        out = coalesce_ranges(ranges, 3)
        assert out == [(0, 48), (1000, 16), (2000, 16)]

    def test_covers_all_live_bytes(self):
        ranges = [(0, 16), (500, 16), (1000, 16), (2000, 16), (3000, 96)]
        out = coalesce_ranges(ranges, 3)
        assert len(out) == 3
        for start, length in ranges:
            assert any(s <= start and start + length <= s + l
                       for s, l in out), "live byte not covered"

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError):
            coalesce_ranges([(0, 0)], 3)
        with pytest.raises(ValueError):
            coalesce_ranges([(4090, 100)], 3)
        with pytest.raises(ValueError):
            coalesce_ranges([(0, 16)], 0)


class TestSubpageFetch:
    def make(self):
        system = DilosSystem(DilosConfig(local_mem_bytes=1 * MIB,
                                         remote_mem_bytes=64 * MIB))
        region = system.mmap(4 * MIB, name="data")
        return system, region

    def test_local_page_immediate(self):
        system, region = self.make()
        system.memory.write(region.base, b"local-bytes")
        got = []
        ok = system.kernel.guide_subpage_fetch(region.base, 11, got.append)
        assert ok
        assert got == [b"local-bytes"]

    def test_remote_page_arrives_earlier_than_full_fetch(self):
        system, region = self.make()
        # Populate 512 pages (>256 frames) to force eviction of the head.
        for i in range(512):
            system.memory.write(region.base + i * PAGE_SIZE, b"\x42" * 64)
        system.clock.advance(500)  # let the manager clean and evict
        got = []
        ok = system.kernel.guide_subpage_fetch(region.base, 64, got.append)
        assert ok
        assert got == []  # async: not yet arrived
        t0 = system.clock.now
        model = system.model
        system.clock.advance(model.rdma_read_latency(64) + 1.0)
        assert got == [b"\x42" * 64]
        # Arrived well inside a 4 KiB fetch window.
        assert (model.rdma_read_latency(PAGE_SIZE)
                - model.rdma_read_latency(64)) > 0.4

    def test_unmapped_page_unreachable(self):
        system, _region = self.make()
        assert not system.kernel.guide_subpage_fetch(0x10, 8, lambda d: None)

    def test_cross_page_subpage(self):
        system, region = self.make()
        va = region.base + PAGE_SIZE - 4
        system.memory.write(va, b"ABCDEFGH")  # spans two pages
        for i in range(512):
            system.memory.write(region.base + i * PAGE_SIZE, b"\x42" * 64)
        system.memory.write(va, b"ABCDEFGH")
        got = []
        assert system.kernel.guide_subpage_fetch(va, 8, got.append)
        system.clock.advance(10)
        assert got == [b"ABCDEFGH"]

    def evict_span(self, system, region, va):
        """Write ``ABCDEFGH`` across the page boundary at ``va``, then
        stream 512 pages past it so both of its pages go remote."""
        system.memory.write(va, b"ABCDEFGH")
        for i in range(2, 514):
            system.memory.write(region.base + i * PAGE_SIZE, b"\x42" * 64)
        system.clock.advance(500)
        for vpn in (va >> PAGE_SHIFT, (va >> PAGE_SHIFT) + 1):
            assert not pte_mod.is_present(system.addr_space.page_table.get(vpn))

    def test_cross_page_subpage_of_two_remote_pages(self):
        # Two remote slots gathered in span order by one scatter-gather
        # read on the guide QP.
        system, region = self.make()
        va = region.base + PAGE_SIZE - 4
        self.evict_span(system, region, va)
        got = []
        assert system.kernel.guide_subpage_fetch(va, 8, got.append)
        assert got == []
        system.clock.advance(10)
        assert got == [b"ABCDEFGH"]
        assert system.metrics().value("guide.subpage_fetches") == 1

    def test_cross_page_subpage_declines_a_resident_tail(self):
        # The tail page comes back and is rewritten locally; its remote
        # slot still holds the old bytes, so a gather would return them.
        system, region = self.make()
        va = region.base + PAGE_SIZE - 4
        self.evict_span(system, region, va)
        system.memory.write(region.base + PAGE_SIZE, b"WXYZ")
        assert not pte_mod.is_present(
            system.addr_space.page_table.get(va >> PAGE_SHIFT))
        got = []
        assert not system.kernel.guide_subpage_fetch(va, 8, got.append)
        system.clock.advance(10)
        assert got == []
        assert system.memory.read(va, 8) == b"ABCDWXYZ"

    def test_bad_size_rejected(self):
        system, region = self.make()
        with pytest.raises(ValueError):
            system.kernel.guide_subpage_fetch(region.base, 0, lambda d: None)


class TestPeekLocal:
    def test_peek_resident(self):
        system = DilosSystem(DilosConfig(local_mem_bytes=1 * MIB,
                                         remote_mem_bytes=16 * MIB))
        region = system.mmap(1 * MIB)
        system.memory.write(region.base, b"xyz")
        assert system.kernel.peek_local(region.base, 3) == b"xyz"

    def test_peek_nonresident_none(self):
        system = DilosSystem(DilosConfig(local_mem_bytes=1 * MIB,
                                         remote_mem_bytes=16 * MIB))
        region = system.mmap(1 * MIB)
        assert system.kernel.peek_local(region.base, 3) is None
