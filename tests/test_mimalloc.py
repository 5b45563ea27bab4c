"""Unit + property tests for the mimalloc-style allocator and its guide."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import OutOfMemoryError
from repro.common.units import MIB, PAGE_SIZE
from repro.alloc.mimalloc import (
    GRANULE,
    Mimalloc,
    MimallocGuide,
    SIZE_CLASSES,
    size_class_for,
)
from repro.core import DilosConfig, DilosSystem


def make_system(local_mib=8, remote_mib=64):
    return DilosSystem(DilosConfig(local_mem_bytes=local_mib * MIB,
                                   remote_mem_bytes=remote_mib * MIB))


@pytest.fixture()
def alloc():
    return Mimalloc(make_system(), arena_bytes=4 * MIB)


class TestSizeClasses:
    def test_exact_class(self):
        assert size_class_for(16) == 16
        assert size_class_for(2048) == 2048

    def test_rounding_up(self):
        assert size_class_for(17) == 32
        assert size_class_for(100) == 128

    def test_large_rejected(self):
        with pytest.raises(ValueError):
            size_class_for(4096)

    def test_classes_sorted(self):
        assert list(SIZE_CLASSES) == sorted(SIZE_CLASSES)


class TestMalloc:
    def test_basic_roundtrip(self, alloc):
        va = alloc.malloc(100)
        assert alloc.allocation_size(va) == 100
        alloc.free(va)
        assert alloc.allocation_size(va) is None

    def test_distinct_addresses(self, alloc):
        vas = [alloc.malloc(64) for _ in range(100)]
        assert len(set(vas)) == 100

    def test_same_class_same_page_until_full(self, alloc):
        slots = PAGE_SIZE // 64
        vas = [alloc.malloc(64) for _ in range(slots)]
        pages = {va >> 12 for va in vas}
        assert len(pages) == 1
        extra = alloc.malloc(64)
        assert (extra >> 12) not in pages

    def test_no_overlap_across_classes(self, alloc):
        spans = []
        for size in [16, 100, 1000, 5000, 20000]:
            va = alloc.malloc(size)
            spans.append((va, va + size))
        spans.sort()
        for (a_start, a_end), (b_start, b_end) in zip(spans, spans[1:]):
            assert a_end <= b_start

    def test_large_allocation_page_aligned(self, alloc):
        va = alloc.malloc(3 * PAGE_SIZE + 7)
        assert va % PAGE_SIZE == 0

    def test_free_recycles_empty_page(self, alloc):
        va = alloc.malloc(2048)
        page = va >> 12
        va2 = alloc.malloc(2048)
        assert (va2 >> 12) == page  # same class page, two slots
        alloc.free(va)
        alloc.free(va2)
        va3 = alloc.malloc(512)  # different class reuses recycled page
        assert (va3 >> 12) == page

    def test_double_free_rejected(self, alloc):
        va = alloc.malloc(32)
        alloc.free(va)
        with pytest.raises(ValueError):
            alloc.free(va)

    def test_nonpositive_rejected(self, alloc):
        with pytest.raises(ValueError):
            alloc.malloc(0)

    def test_arena_exhaustion(self):
        alloc = Mimalloc(make_system(), arena_bytes=2 * PAGE_SIZE)
        alloc.malloc(PAGE_SIZE)
        alloc.malloc(2048)
        with pytest.raises(OutOfMemoryError):
            alloc.malloc(PAGE_SIZE)

    def test_accounting(self, alloc):
        a = alloc.malloc(100)
        b = alloc.malloc(200)
        assert alloc.allocated_bytes == 300
        assert alloc.live_allocations == 2
        alloc.free(a)
        assert alloc.allocated_bytes == 200
        alloc.free(b)
        assert alloc.allocated_bytes == 0

    def test_allocations_page_out_and_read_back(self):
        """The heap is disaggregated memory: allocations four times the
        local pool page out to the memory node and read back intact."""
        system = make_system(local_mib=1)
        alloc = Mimalloc(system, arena_bytes=16 * MIB)
        vas = [alloc.malloc(PAGE_SIZE) for _ in range(1024)]
        for i, va in enumerate(vas):
            system.memory.write(va, bytes([i % 251]) * 64)
        system.clock.advance(5000)
        assert system.metrics().value("reclaim.pages_evicted") > 0
        for i, va in enumerate(vas):
            assert system.memory.read(va, 64) == bytes([i % 251]) * 64


class TestLiveRanges:
    def test_foreign_page_is_none(self, alloc):
        assert alloc.live_ranges(1) is None

    def test_untouched_arena_page_empty(self, alloc):
        vpn = alloc.region.base >> 12
        assert alloc.live_ranges(vpn) == []

    def test_small_allocation_covered(self, alloc):
        va = alloc.malloc(64)
        vpn = va >> 12
        ranges = alloc.live_ranges(vpn)
        offset = va & (PAGE_SIZE - 1)
        assert any(start <= offset and offset + 64 <= start + length
                   for start, length in ranges)

    def test_free_clears_ranges(self, alloc):
        va = alloc.malloc(256)
        vpn = va >> 12
        alloc.free(va)
        assert alloc.live_ranges(vpn) == []

    def test_granule_rounding(self, alloc):
        # A 48-byte class object covers exactly 3 granules.
        va = alloc.malloc(40)
        vpn = va >> 12
        total = sum(length for _start, length in alloc.live_ranges(vpn))
        assert total == 48

    def test_large_allocation_spans_pages(self, alloc):
        va = alloc.malloc(PAGE_SIZE + 100)
        first, second = va >> 12, (va >> 12) + 1
        assert alloc.live_ranges(first) == [(0, PAGE_SIZE)]
        [(start, length)] = alloc.live_ranges(second)
        assert start == 0
        assert length == ((100 + GRANULE - 1) // GRANULE) * GRANULE

    def test_guide_delegates(self, alloc):
        guide = MimallocGuide(alloc)
        va = alloc.malloc(64)
        assert guide.live_ranges(va >> 12) == alloc.live_ranges(va >> 12)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=8000), min_size=1,
                max_size=60))
def test_allocations_never_overlap_property(sizes):
    alloc = Mimalloc(make_system(), arena_bytes=8 * MIB)
    spans = []
    for size in sizes:
        va = alloc.malloc(size)
        spans.append((va, va + size))
    spans.sort()
    for (a_start, a_end), (b_start, b_end) in zip(spans, spans[1:]):
        assert a_end <= b_start, "allocations overlap"


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4000), min_size=1,
                max_size=40), st.randoms())
def test_live_bytes_match_bitmaps_property(sizes, rng):
    """Sum of live ranges always >= live bytes, and 0 when all freed."""
    alloc = Mimalloc(make_system(), arena_bytes=8 * MIB)
    vas = [alloc.malloc(size) for size in sizes]
    arena_pages = range(alloc.region.base >> 12, (alloc.region.end - 1 >> 12) + 1)

    def total_live():
        return sum(sum(r[1] for r in (alloc.live_ranges(vpn) or []))
                   for vpn in arena_pages)

    assert total_live() >= alloc.allocated_bytes
    order = list(range(len(vas)))
    rng.shuffle(order)
    for index in order:
        alloc.free(vas[index])
    assert total_live() == 0
