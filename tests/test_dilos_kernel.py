"""Integration tests for the DiLOS kernel: fault taxonomy, eviction
round-trips, prefetch install, reclamation off the critical path, guided
paging, and teardown."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import InvalidAddressError
from repro.common.units import MIB, PAGE_SIZE
from repro.alloc import Mimalloc, MimallocGuide
from repro.core import DilosConfig, DilosSystem, PrefetchGuide


def make_system(local_mib=2, remote_mib=64, **kwargs):
    config = DilosConfig(local_mem_bytes=local_mib * MIB,
                         remote_mem_bytes=remote_mib * MIB, **kwargs)
    return DilosSystem(config)


def fill_pattern(page_index, nbytes=64):
    return bytes((page_index * 31 + j) % 256 for j in range(nbytes))


class TestFaultTaxonomy:
    def test_first_touch_is_not_major(self):
        system = make_system()
        region = system.mmap(1 * MIB)
        system.memory.write(region.base, b"x")
        m = system.metrics()
        assert m.value("fault.first_touch") == 1
        assert m.value("fault.major") == 0

    def test_unmapped_access_raises(self):
        system = make_system()
        with pytest.raises(InvalidAddressError):
            system.memory.read(0x10, 1)

    def test_major_fault_after_eviction(self):
        system = make_system(local_mib=1)
        region = system.mmap(4 * MIB)
        pages = region.size // PAGE_SIZE
        for i in range(pages):
            system.memory.write(region.base + i * PAGE_SIZE, fill_pattern(i))
        system.clock.advance(1000)
        system.memory.read(region.base, 8)
        assert system.metrics().value("fault.major") >= 1

    def test_second_read_of_faulted_page_costs_no_wire_read(self):
        """A demand fault completes before the access returns, so the
        next reader of that page hits: one wire read in total."""
        system = make_system(local_mib=1, prefetcher="none")
        region = system.mmap(4 * MIB)
        pages = region.size // PAGE_SIZE
        for i in range(pages):
            system.memory.write(region.base + i * PAGE_SIZE, fill_pattern(i))
        system.clock.advance(5000)  # evict everything
        reads_before = system.kernel.comm.stats.ops_read
        majors_before = system.metrics().value("fault.major")
        for _ in range(2):
            assert system.memory.read(region.base, 32) == fill_pattern(0, 32)
        assert system.kernel.comm.stats.ops_read - reads_before == 1
        assert system.metrics().value("fault.major") - majors_before == 1

    def test_no_prefetch_means_no_minor_faults(self):
        system = make_system(local_mib=1, prefetcher="none")
        region = system.mmap(4 * MIB)
        pages = region.size // PAGE_SIZE
        for i in range(pages):
            system.memory.write(region.base + i * PAGE_SIZE, fill_pattern(i))
        for i in range(pages):
            system.memory.read(region.base + i * PAGE_SIZE, 16)
        m = system.metrics()
        assert m.value("fault.minor") == 0
        assert m.value("prefetch.issued") == 0


class TestDataIntegrity:
    def test_sequential_roundtrip_under_pressure(self):
        system = make_system(local_mib=1, prefetcher="readahead")
        region = system.mmap(8 * MIB)
        pages = region.size // PAGE_SIZE
        for i in range(pages):
            system.memory.write(region.base + i * PAGE_SIZE, fill_pattern(i))
        for i in range(pages):
            got = system.memory.read(region.base + i * PAGE_SIZE, 64)
            assert got == fill_pattern(i), f"page {i} corrupted"
        assert system.metrics().value("reclaim.pages_evicted") > 0

    def test_random_access_roundtrip(self):
        system = make_system(local_mib=1, prefetcher="trend")
        region = system.mmap(6 * MIB)
        pages = region.size // PAGE_SIZE
        rng = random.Random(42)
        written = {}
        for _ in range(3000):
            page = rng.randrange(pages)
            if page in written and rng.random() < 0.5:
                got = system.memory.read(region.base + page * PAGE_SIZE, 64)
                assert got == written[page], f"page {page} corrupted"
            else:
                data = fill_pattern(rng.randrange(10000))
                system.memory.write(region.base + page * PAGE_SIZE, data)
                written[page] = data

    def test_rewrite_after_eviction_persists(self):
        system = make_system(local_mib=1)
        region = system.mmap(4 * MIB)
        pages = region.size // PAGE_SIZE
        for i in range(pages):
            system.memory.write(region.base + i * PAGE_SIZE, fill_pattern(i))
        # Rewrite page 0 (refetch + dirty again), thrash, read back.
        system.memory.write(region.base, b"second version")
        for i in range(pages):
            system.memory.read(region.base + i * PAGE_SIZE, 8)
        assert system.memory.read(region.base, 14) == b"second version"


class TestReclamationOffCriticalPath:
    def test_no_direct_reclaim_in_steady_state(self):
        system = make_system(local_mib=1, prefetcher="readahead")
        region = system.mmap(8 * MIB)
        pages = region.size // PAGE_SIZE
        for i in range(pages):
            system.memory.write(region.base + i * PAGE_SIZE, fill_pattern(i))
        for i in range(pages):
            system.memory.read(region.base + i * PAGE_SIZE, 64)
        m = system.metrics()
        assert m.value("reclaim.pages_evicted") > pages  # real pressure
        assert m.value("reclaim.direct") == 0  # the DiLOS claim

    def test_interleaved_streams_cause_no_direct_reclaim(self):
        """Two scans interleaved access by access under readahead share
        one small cache without reclaiming on the fault path."""
        system = make_system(local_mib=1, prefetcher="readahead")
        region = system.mmap(6 * MIB)
        pages = region.size // PAGE_SIZE
        for i in range(pages):
            system.memory.write(region.base + i * PAGE_SIZE, fill_pattern(i))
        system.clock.advance(5000)
        half = pages // 2
        for i in range(half):
            for page in (i, half + i):
                assert system.memory.read(region.base + page * PAGE_SIZE,
                                          32) == fill_pattern(page, 32)
            system.cpu(0.3)
            system.cpu(0.3)
        m = system.metrics()
        assert m.value("reclaim.pages_evicted") > pages  # real pressure
        assert m.value("reclaim.direct") == 0

    def test_fault_breakdown_has_no_reclaim_component(self):
        system = make_system(local_mib=1, prefetcher="none")
        region = system.mmap(4 * MIB)
        pages = region.size // PAGE_SIZE
        for i in range(pages):
            system.memory.write(region.base + i * PAGE_SIZE, fill_pattern(i))
        for i in range(pages):
            system.memory.read(region.base + i * PAGE_SIZE, 8)
        avgs = system.kernel.breakdown.averages()
        assert avgs["reclaim"] == 0.0
        assert avgs["fetch"] > avgs["software"]

    def test_direct_reclaim_only_ablation_pays_inline(self):
        system = make_system(local_mib=1, prefetcher="none",
                             direct_reclaim_only=True)
        region = system.mmap(4 * MIB)
        pages = region.size // PAGE_SIZE
        for i in range(pages):
            system.memory.write(region.base + i * PAGE_SIZE, fill_pattern(i))
        for i in range(pages):
            system.memory.read(region.base + i * PAGE_SIZE, 8)
        m = system.metrics()
        assert m.value("reclaim.direct") > 0
        assert system.kernel.breakdown.averages()["reclaim"] > 0


class TestPrefetchInstall:
    def test_prefetched_pages_mapped_without_major_fault(self):
        system = make_system(local_mib=1, prefetcher="readahead")
        region = system.mmap(8 * MIB)
        pages = region.size // PAGE_SIZE
        for i in range(pages):
            system.memory.write(region.base + i * PAGE_SIZE, fill_pattern(i))
        for i in range(pages):
            system.memory.read(region.base + i * PAGE_SIZE, 64)
        m = system.metrics()
        assert m.value("prefetch.issued") > 0
        # Sequential read: roughly one major per readahead window.
        assert m.value("fault.major") < pages // 4

    def test_prefetch_never_triggers_reclaim(self):
        system = make_system(local_mib=1, prefetcher="readahead")
        kernel = system.kernel
        region = system.mmap(4 * MIB)
        pages = region.size // PAGE_SIZE
        for i in range(pages):
            system.memory.write(region.base + i * PAGE_SIZE, fill_pattern(i))
        skipped = kernel.registry.value("prefetch.skipped_no_frames")
        # Prefetch requests beyond the reserve must be skipped, not force
        # reclamation; re-reading guarantees such requests existed.
        for i in range(pages):
            system.memory.read(region.base + i * PAGE_SIZE, 8)
        assert kernel.registry.value("reclaim.direct") == 0
        assert skipped >= 0  # counter exists and never went negative


class TestSwapCacheAblation:
    def test_swap_cache_mode_converts_hits_to_minor_faults(self):
        base_cfg = dict(local_mib=1, prefetcher="readahead")
        unified = make_system(**base_cfg)
        cached = make_system(**base_cfg, swap_cache_mode=True)
        results = {}
        for name, system in [("unified", unified), ("cached", cached)]:
            region = system.mmap(6 * MIB)
            pages = region.size // PAGE_SIZE
            for i in range(pages):
                system.memory.write(region.base + i * PAGE_SIZE, fill_pattern(i))
            t0 = system.clock.now
            for i in range(pages):
                got = system.memory.read(region.base + i * PAGE_SIZE, 64)
                assert got == fill_pattern(i)
            results[name] = (system.clock.now - t0, system.metrics())
        assert results["cached"][1].value("fault.minor") > \
            results["unified"][1].value("fault.minor")
        assert results["cached"][0] > results["unified"][0]


class TestGuidedPaging:
    def build(self):
        system = make_system(local_mib=1, remote_mib=64, prefetcher="none")
        alloc = Mimalloc(system, arena_bytes=16 * MIB)
        system.kernel.register_allocator_guide(MimallocGuide(alloc))
        return system, alloc

    def test_live_objects_survive_guided_roundtrip(self):
        system, alloc = self.build()
        vas = [alloc.malloc(128) for _ in range(2000)]
        for i, va in enumerate(vas):
            system.memory.write(va, fill_pattern(i, 128))
        # Free ~70% to create page-internal fragmentation (the §6.3 setup).
        rng = random.Random(1)
        live = {}
        for i, va in enumerate(vas):
            if rng.random() < 0.7:
                alloc.free(va)
            else:
                live[va] = fill_pattern(i, 128)
        # Thrash through unrelated memory to force full eviction.
        scratch = system.mmap(4 * MIB, name="scratch")
        for i in range(scratch.size // PAGE_SIZE):
            system.memory.write(scratch.base + i * PAGE_SIZE, b"z" * 32)
        system.clock.advance(2000)
        for va, expect in live.items():
            assert system.memory.read(va, 128) == expect
        assert system.kernel.registry.value("guide.action_fetches") > 0

    def test_guided_paging_reduces_wire_bytes(self):
        def run(guided):
            system = make_system(local_mib=1, remote_mib=64,
                                 prefetcher="none")
            alloc = Mimalloc(system, arena_bytes=16 * MIB)
            if guided:
                system.kernel.register_allocator_guide(MimallocGuide(alloc))
            vas = [alloc.malloc(128) for _ in range(4000)]
            for i, va in enumerate(vas):
                system.memory.write(va, fill_pattern(i, 128))
            rng = random.Random(2)
            kept = [va for va in vas if rng.random() > 0.7 or alloc.free(va)]
            system.clock.advance(3000)
            for va in kept:
                system.memory.read(va, 128)
            stats = system.kernel.comm.stats
            return stats.bytes_read + stats.bytes_written

        assert run(guided=True) < run(guided=False)

    def test_declining_prefetch_guide_falls_through(self):
        """A prefetch guide whose ``on_fault`` returns False sees every
        major fault and leaves it to the default prefetcher."""
        class CountingGuide(PrefetchGuide):
            def __init__(self):
                self.faults = 0

            def on_fault(self, ctx, va):
                self.faults += 1
                return False

        system = make_system(local_mib=1, prefetcher="readahead")
        guide = CountingGuide()
        system.kernel.register_prefetch_guide(guide)
        region = system.mmap(4 * MIB)
        pages = region.size // PAGE_SIZE
        for i in range(pages):
            system.memory.write(region.base + i * PAGE_SIZE, fill_pattern(i))
        system.clock.advance(5000)  # spill
        for i in range(pages):
            system.memory.read(region.base + i * PAGE_SIZE, 8)
        m = system.metrics()
        assert guide.faults == m.value("fault.major") > 0
        assert m.value("guide.handled_faults") == 0
        assert m.value("prefetch.issued") > 0


class TestTeardown:
    def test_munmap_releases_everything(self):
        system = make_system(local_mib=2)
        region = system.mmap(1 * MIB)
        pages = region.size // PAGE_SIZE
        for i in range(pages):
            system.memory.write(region.base + i * PAGE_SIZE, b"x")
        used_before = system.frames.used_frames
        assert used_before >= pages
        system.munmap(region)
        assert system.frames.used_frames == used_before - pages
        with pytest.raises(InvalidAddressError):
            system.memory.read(region.base, 1)

    def test_munmap_with_remote_pages(self):
        system = make_system(local_mib=1)
        region = system.mmap(4 * MIB)
        pages = region.size // PAGE_SIZE
        for i in range(pages):
            system.memory.write(region.base + i * PAGE_SIZE, b"x")
        system.clock.advance(1000)
        free_slots_before = system.node.free_slots
        system.munmap(region)
        assert system.node.free_slots > free_slots_before

    def test_munmap_mid_prefetch_drops_the_fetch(self):
        """Unmapping a region while its prefetches fly frees each
        landing frame once, and counts the fetch as dropped."""
        system = make_system(local_mib=1, prefetcher="none")
        region = system.mmap(4 * MIB)
        pages = region.size // PAGE_SIZE
        for i in range(pages):
            system.memory.write(region.base + i * PAGE_SIZE, fill_pattern(i))
        system.clock.advance(5000)  # spill
        first = region.base // PAGE_SIZE
        issued = sum(system.kernel.prefetch_vpn(first + i) for i in range(16))
        assert issued == 16
        system.munmap(region)
        system.clock.advance(100)  # let the orphaned fetches land
        assert system.kernel.registry.value("net.fetches_dropped") == 16
        assert system.frames.used_frames == 0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       prefetcher=st.sampled_from(["none", "readahead", "trend"]))
def test_paging_preserves_data_property(seed, prefetcher):
    """Whatever the access pattern and prefetcher, reads return the last
    value written — the fundamental paging invariant."""
    system = make_system(local_mib=1, prefetcher=prefetcher)
    region = system.mmap(3 * MIB)
    pages = region.size // PAGE_SIZE
    rng = random.Random(seed)
    shadow = {}
    for step in range(800):
        page = rng.randrange(pages)
        offset = rng.randrange(0, PAGE_SIZE - 16)
        va = region.base + page * PAGE_SIZE + offset
        if rng.random() < 0.6:
            value = bytes([step % 256] * 16)
            system.memory.write(va, value)
            for j in range(16):
                shadow[va + j] = value[j]
        else:
            got = system.memory.read(va, 16)
            for j in range(16):
                assert got[j] == shadow.get(va + j, 0)

