"""Tests for stop-and-copy migration (§5.2 extension)."""

import random

import pytest

from repro.common.units import MIB, PAGE_SIZE
from repro.core import DilosConfig, DilosSystem
from repro.core.migration import checkpoint, restore
from repro.core.spec import make_backend
from repro.mem.cluster import ReplicatedMemory, ShardedMemory
from repro.mem.remote import MemoryNode


def make_system(local_mib=1, remote_mib=32, **kwargs):
    return DilosSystem(DilosConfig(local_mem_bytes=local_mib * MIB,
                                   remote_mem_bytes=remote_mib * MIB,
                                   **kwargs))


def pattern(i, nbytes=64):
    return bytes((i * 101 + j) % 256 for j in range(nbytes))


def populate(system, mib=4):
    region = system.mmap(mib * MIB, name="app-data")
    pages = region.size // PAGE_SIZE
    for i in range(pages):
        system.memory.write(region.base + i * PAGE_SIZE, pattern(i))
    return region, pages


class TestCheckpoint:
    def test_captures_resident_and_remote_pages(self):
        system = make_system(local_mib=1)
        region, pages = populate(system)  # 4x local: most pages remote
        image = checkpoint(system)
        assert image.page_count == pages
        assert image.image_bytes == pages * PAGE_SIZE
        first_vpn = region.base >> 12
        assert image.pages[first_vpn][:64] == pattern(0)

    def test_downtime_charged(self):
        system = make_system()
        populate(system, mib=2)
        before = system.clock.now
        image = checkpoint(system)
        assert image.downtime_us > 0
        assert system.clock.now == pytest.approx(before + image.downtime_us)

    def test_quiesces_inflight_fetches(self):
        system = make_system(local_mib=1)
        region, pages = populate(system)
        # Kick off a fault whose readahead leaves fetches in flight, then
        # checkpoint immediately.
        system.memory.read(region.base, 8)
        image = checkpoint(system)
        assert image.page_count == pages  # nothing stuck as FETCHING

    def test_untouched_pages_not_captured(self):
        system = make_system()
        system.mmap(1 * MIB, name="lazy")  # never touched
        image = checkpoint(system)
        assert image.page_count == 0


class TestRestore:
    def test_contents_identical_after_restore(self):
        source = make_system(local_mib=1)
        region, pages = populate(source)
        image = checkpoint(source)
        target = restore(image, DilosConfig(local_mem_bytes=1 * MIB,
                                            remote_mem_bytes=32 * MIB))
        for i in range(pages):
            got = target.memory.read(region.base + i * PAGE_SIZE, 64)
            assert got == pattern(i), f"page {i} corrupted by migration"

    def test_restore_starts_cold_and_demand_pages(self):
        source = make_system()
        region, _pages = populate(source, mib=2)
        image = checkpoint(source)
        target = restore(image, DilosConfig(local_mem_bytes=4 * MIB,
                                            remote_mem_bytes=32 * MIB))
        assert target.frames.used_frames == 0  # cold local cache
        target.memory.read(region.base, 8)
        assert target.metrics().value("fault.major") >= 1  # warmup faulting

    def test_restore_to_different_local_size(self):
        source = make_system(local_mib=1)
        region, pages = populate(source)
        image = checkpoint(source)
        target = restore(image, DilosConfig(local_mem_bytes=8 * MIB,
                                            remote_mem_bytes=32 * MIB))
        for i in range(0, pages, 7):
            assert target.memory.read(region.base + i * PAGE_SIZE, 64) == \
                pattern(i)

    def test_restore_onto_replicated_cluster(self):
        """Migrate from a single node onto a fault-tolerant cluster."""
        source = make_system(local_mib=1)
        region, pages = populate(source)
        image = checkpoint(source)
        nodes = [MemoryNode(32 * MIB, name=f"m{i}") for i in range(2)]
        target = restore(image, DilosConfig(local_mem_bytes=1 * MIB,
                                            remote_mem_bytes=32 * MIB),
                         memory_backend=ReplicatedMemory(nodes))
        nodes[0].fail()  # the new primary dies right after migration
        for i in range(0, pages, 11):
            assert target.memory.read(region.base + i * PAGE_SIZE, 64) == \
                pattern(i)

    def test_restore_onto_sharded_cluster(self):
        """Migrate from a single memory node onto a sharded pool: pages
        land remote-first striped across shards, the cache starts cold,
        warmup faults demand-page, and every byte survives."""
        source = make_system(local_mib=1)
        region, pages = populate(source)
        image = checkpoint(source)

        backend = make_backend("sharded:2", 32 * MIB)
        assert isinstance(backend, ShardedMemory)
        target = restore(image, DilosConfig(local_mem_bytes=1 * MIB,
                                            remote_mem_bytes=32 * MIB),
                         memory_backend=backend)

        # Remote-first landing: nothing resident, image striped over both
        # shards (round-robin slot allocation touches every member).
        assert target.frames.used_frames == 0
        assert backend.total_slots - backend.free_slots == pages
        for node in backend.nodes:
            assert node.free_slots < node.total_slots, \
                f"shard {node.name} received no migrated pages"

        # Warmup is real demand paging on the new backend.
        faults_before = target.metrics().value("fault.major")
        assert target.memory.read(region.base, 64) == pattern(0)
        assert target.metrics().value("fault.major") > faults_before

        # Byte-exact contents across the whole image.
        for i in range(pages):
            got = target.memory.read(region.base + i * PAGE_SIZE, 64)
            assert got == pattern(i), f"page {i} corrupted by migration"

    def test_restore_sharded_then_parity_roundtrip(self):
        """A second hop (sharded -> parity) keeps contents intact and the
        parity backend can reconstruct after a member failure."""
        source = make_system(local_mib=1)
        region, pages = populate(source, mib=2)
        first = restore(checkpoint(source),
                        DilosConfig(local_mem_bytes=1 * MIB,
                                    remote_mem_bytes=32 * MIB),
                        memory_backend=make_backend("sharded:2", 32 * MIB))
        parity = make_backend("parity:2+1", 32 * MIB)
        second = restore(checkpoint(first),
                         DilosConfig(local_mem_bytes=1 * MIB,
                                     remote_mem_bytes=32 * MIB),
                         memory_backend=parity)
        parity.data_nodes[0].fail()  # XOR reconstruction path
        for i in range(0, pages, 5):
            assert second.memory.read(region.base + i * PAGE_SIZE, 64) == \
                pattern(i)

    def test_target_can_keep_working(self):
        source = make_system(local_mib=1)
        region, pages = populate(source)
        image = checkpoint(source)
        target = restore(image, DilosConfig(local_mem_bytes=1 * MIB,
                                            remote_mem_bytes=32 * MIB))
        rng = random.Random(3)
        shadow = {i: pattern(i) for i in range(pages)}
        for step in range(500):
            i = rng.randrange(pages)
            va = region.base + i * PAGE_SIZE
            if rng.random() < 0.5:
                new = pattern(step + 10_000)
                target.memory.write(va, new)
                shadow[i] = new
            else:
                assert target.memory.read(va, 64) == shadow[i]

    def test_guided_paging_pages_survive(self):
        """ACTION pages are rebuilt from their vectors at capture."""
        from repro.alloc import Mimalloc, MimallocGuide
        source = make_system(local_mib=1, prefetcher="none",
                             guided_paging=True)
        alloc = Mimalloc(source, arena_bytes=8 * MIB)
        source.kernel.register_allocator_guide(MimallocGuide(alloc))
        rng = random.Random(5)
        vas = [alloc.malloc(128) for _ in range(12_000)]
        live = {}
        for i, va in enumerate(vas):
            source.memory.write(va, pattern(i, 128))
        for i, va in enumerate(vas):
            if rng.random() < 0.7:
                alloc.free(va)
            else:
                live[va] = pattern(i, 128)
        source.clock.advance(5000)  # evict via guided paging
        assert source.kernel.registry.value("reclaim.pages_evicted") > 0
        image = checkpoint(source)
        target = restore(image, DilosConfig(local_mem_bytes=1 * MIB,
                                            remote_mem_bytes=32 * MIB))
        for va, expect in live.items():
            assert target.memory.read(va, 128) == expect
