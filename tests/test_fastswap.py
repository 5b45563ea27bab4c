"""Integration tests for the Fastswap baseline: swap-cache behaviour,
major/minor fault split, direct reclaim on the fault path, data integrity."""

import random

import pytest

from repro.common.errors import InvalidAddressError
from repro.common.units import MIB, PAGE_SIZE
from repro.baselines.fastswap import FastswapConfig, FastswapSystem
from repro.baselines.fastswap.swap_cache import SwapCache


def make_system(local_mib=2, remote_mib=64, **kwargs):
    return FastswapSystem(FastswapConfig(local_mem_bytes=local_mib * MIB,
                                         remote_mem_bytes=remote_mib * MIB,
                                         **kwargs))


def fill_pattern(i, nbytes=64):
    return bytes((i * 13 + j) % 256 for j in range(nbytes))


def populate(system, region):
    pages = region.size // PAGE_SIZE
    for i in range(pages):
        system.memory.write(region.base + i * PAGE_SIZE, fill_pattern(i))
    return pages


class TestSwapCacheUnit:
    def test_insert_lookup_remove(self):
        cache = SwapCache()
        cache.insert(5, frame=2, ready_time=10.0)
        assert cache.lookup(5) == (2, 10.0)
        assert cache.contains(5)
        assert cache.remove(5) == (2, 10.0)
        assert not cache.contains(5)

    def test_double_insert_rejected(self):
        cache = SwapCache()
        cache.insert(5, 1, 0.0)
        with pytest.raises(ValueError):
            cache.insert(5, 2, 0.0)

    def test_pop_any_ready_respects_io(self):
        cache = SwapCache()
        cache.insert(1, 10, ready_time=100.0)
        assert cache.pop_any_ready(now=50.0) is None
        assert cache.pop_any_ready(now=100.0) == (1, 10)
        assert len(cache) == 0


class TestFaultSplit:
    def test_sequential_read_split_is_one_to_seven(self):
        """Table 1: readahead window 8 => 12.5% major / 87.5% minor."""
        system = make_system(local_mib=2)
        region = system.mmap(16 * MIB)
        pages = populate(system, region)
        for i in range(pages):
            system.memory.read(region.base + i * PAGE_SIZE, 64)
        m = system.metrics()
        total = m.value("fault.major") + m.value("fault.minor")
        # Most pages fault (the tail of the populate pass is still resident).
        assert total > 0.8 * pages
        major_frac = m.value("fault.major") / total
        assert 0.10 < major_frac < 0.20  # ~12.5%, readahead sometimes skips

    def test_no_minor_faults_without_pressure(self):
        system = make_system(local_mib=8)
        region = system.mmap(1 * MIB)
        pages = populate(system, region)
        for i in range(pages):
            system.memory.read(region.base + i * PAGE_SIZE, 8)
        m = system.metrics()
        assert m.value("fault.major") == 0
        assert m.value("fault.minor") == 0

    def test_random_read_mostly_major(self):
        """Random access defeats readahead: majors dominate."""
        system = make_system(local_mib=1)
        region = system.mmap(8 * MIB)
        pages = populate(system, region)
        rng = random.Random(3)
        for _ in range(1500):
            i = rng.randrange(pages)
            system.memory.read(region.base + i * PAGE_SIZE, 8)
        m = system.metrics()
        assert m.value("fault.major") > m.value("fault.minor")


class TestReclaim:
    def test_direct_reclaim_on_fault_path(self):
        """Unlike DiLOS, Fastswap reclaims inline at fault time."""
        system = make_system(local_mib=1)
        region = system.mmap(8 * MIB)
        pages = populate(system, region)
        for i in range(pages):
            system.memory.read(region.base + i * PAGE_SIZE, 64)
        m = system.metrics()
        assert m.value("reclaim.direct") > 0
        assert system.kernel.breakdown.averages()["reclaim"] > 0

    def test_dirty_eviction_writes_back(self):
        system = make_system(local_mib=1)
        region = system.mmap(4 * MIB)
        populate(system, region)
        system.clock.advance(5000)
        assert system.metrics().value("net.bytes_written") > 0

    def test_write_slower_than_read(self):
        """Table 2: frontswap stores on the critical path halve writes."""
        def bandwidth(mode):
            system = make_system(local_mib=2)
            region = system.mmap(16 * MIB)
            pages = populate(system, region)
            t0 = system.clock.now
            for i in range(pages):
                if mode == "read":
                    system.memory.read(region.base + i * PAGE_SIZE, PAGE_SIZE)
                else:
                    system.memory.write(region.base + i * PAGE_SIZE,
                                        b"\xCD" * PAGE_SIZE)
            return pages * PAGE_SIZE / (system.clock.now - t0)

        assert bandwidth("write") < 0.70 * bandwidth("read")


class TestDataIntegrity:
    def test_sequential_roundtrip(self):
        system = make_system(local_mib=1)
        region = system.mmap(8 * MIB)
        pages = populate(system, region)
        for i in range(pages):
            got = system.memory.read(region.base + i * PAGE_SIZE, 64)
            assert got == fill_pattern(i), f"page {i} corrupted"

    def test_random_mixed_roundtrip(self):
        system = make_system(local_mib=1)
        region = system.mmap(6 * MIB)
        pages = region.size // PAGE_SIZE
        rng = random.Random(11)
        shadow = {}
        for step in range(2500):
            page = rng.randrange(pages)
            va = region.base + page * PAGE_SIZE
            if page in shadow and rng.random() < 0.5:
                assert system.memory.read(va, 64) == shadow[page]
            else:
                data = fill_pattern(step)
                system.memory.write(va, data)
                shadow[page] = data

    def test_swap_cache_page_contents_correct(self):
        """A page read via a minor fault carries the right bytes."""
        system = make_system(local_mib=1)
        region = system.mmap(8 * MIB)
        pages = populate(system, region)
        for i in range(pages):
            system.memory.read(region.base + i * PAGE_SIZE, 64)
        # Second pass: pages come back through major+readahead again.
        for i in range(0, pages, 3):
            assert system.memory.read(region.base + i * PAGE_SIZE, 64) == \
                fill_pattern(i)


class TestBreakdown:
    def test_figure1_component_shape(self):
        """Fetch dominates; reclaim significant; exception ~0.57 us."""
        system = make_system(local_mib=1)
        region = system.mmap(8 * MIB)
        pages = populate(system, region)
        for i in range(pages):
            system.memory.read(region.base + i * PAGE_SIZE, 8)
        avgs = system.kernel.breakdown.averages()
        assert avgs["exception"] == pytest.approx(0.57)
        assert avgs["fetch"] == max(avgs.values())  # largest component
        assert avgs["reclaim"] > 0


class TestTeardown:
    def test_munmap_frees_frames_and_slots(self):
        system = make_system(local_mib=1)
        region = system.mmap(4 * MIB)
        populate(system, region)
        system.munmap(region)
        with pytest.raises(InvalidAddressError):
            system.memory.read(region.base, 1)
        # All local frames returned (kswapd keeps none for a dead region).
        assert system.frames.used_frames == 0
