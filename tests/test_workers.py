"""Tests for multi-worker interleaving: round-robin order, data-dependent
accesses, shared cache pressure, and one wire read for a cold page two
workers touch (the first faults it in within its turn, the second hits)."""

import pytest

from repro.common.units import MIB, PAGE_SIZE
from repro.core import DilosConfig, DilosSystem
from repro.sim import Workers, cpu, read, touch, write


def make_system(local_mib=1, prefetcher="none"):
    return DilosSystem(DilosConfig(local_mem_bytes=int(local_mib * MIB),
                                   remote_mem_bytes=64 * MIB,
                                   prefetcher=prefetcher))


class TestBasics:
    def test_single_worker_runs_to_completion(self):
        system = make_system()
        region = system.mmap(1 * MIB)

        def worker():
            yield write(region.base, b"solo")
            data = yield read(region.base, 4)
            assert data == b"solo"
            yield cpu(2.0)

        pool = Workers([worker()])
        elapsed = pool.run(system)
        assert pool.ops_executed == 3
        assert elapsed >= 2.0

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            Workers([])

    def test_interleaving_is_round_robin(self):
        system = make_system()
        region = system.mmap(1 * MIB)
        order = []

        def worker(tag):
            for i in range(3):
                order.append((tag, i))
                yield cpu(0.1)

        Workers([worker("a"), worker("b")]).run(system)
        assert order == [("a", 0), ("b", 0), ("a", 1), ("b", 1),
                         ("a", 2), ("b", 2)]

    def test_data_dependent_access(self):
        """Workers can pointer-chase: the read result feeds the next op."""
        system = make_system()
        region = system.mmap(1 * MIB)
        target = region.base + 8 * PAGE_SIZE
        system.memory.write(region.base, target.to_bytes(8, "little"))
        system.memory.write(target, b"followed")

        def chaser():
            raw = yield read(region.base, 8)
            where = int.from_bytes(raw, "little")
            data = yield read(where, 8)
            assert data == b"followed"

        Workers([chaser()]).run(system)

    def test_unbalanced_workers(self):
        system = make_system()
        counts = {"short": 0, "long": 0}

        def worker(tag, n):
            for _ in range(n):
                counts[tag] += 1
                yield cpu(0.01)

        Workers([worker("short", 2), worker("long", 20)]).run(system)
        assert counts == {"short": 2, "long": 20}


class TestConcurrentFaulting:
    def test_duplicate_fetch_suppressed(self):
        """Two workers read the same cold page: one RDMA read total."""
        system = make_system(local_mib=1)
        region = system.mmap(4 * MIB)
        pages = region.size // PAGE_SIZE
        for i in range(pages):
            system.memory.write(region.base + i * PAGE_SIZE,
                                bytes([i % 251]) * 32)
        system.clock.advance(5000)  # evict everything

        target = region.base  # both workers hit the same cold page
        results = []

        def worker():
            data = yield read(target, 32)
            results.append(data)

        reads_before = system.kernel.comm.stats.ops_read
        majors_before = system.kernel.registry.value("fault.major")
        Workers([worker(), worker()]).run(system)
        reads_after = system.kernel.comm.stats.ops_read
        assert results == [bytes([0] * 32)] * 2
        # The first worker's fault fetched the page once; the second
        # worker's access is a plain hit — one wire read total.
        assert reads_after - reads_before == 1
        assert system.kernel.registry.value("fault.major") - majors_before == 1

    def test_disjoint_streams_share_the_cache_fairly(self):
        system = make_system(local_mib=1, prefetcher="readahead")
        region = system.mmap(6 * MIB)
        pages = region.size // PAGE_SIZE
        for i in range(pages):
            system.memory.write(region.base + i * PAGE_SIZE,
                                bytes([i % 251]) * 32)
        system.clock.advance(5000)

        def scanner(first, last):
            for i in range(first, last):
                data = yield read(region.base + i * PAGE_SIZE, 32)
                assert data == bytes([i % 251]) * 32
                yield cpu(0.3)

        half = pages // 2
        pool = Workers([scanner(0, half), scanner(half, pages)])
        pool.run(system)
        assert pool.ops_executed == 2 * pages
        assert system.kernel.registry.value("reclaim.direct") == 0

    def test_many_workers_on_hot_page_cheap(self):
        system = make_system(local_mib=1)
        region = system.mmap(1 * MIB)
        system.memory.write(region.base, b"hot")

        def toucher():
            for _ in range(50):
                yield read(region.base, 3)

        t0 = system.clock.now
        Workers([toucher() for _ in range(8)]).run(system)
        # 400 warm reads: all TLB/cache hits, only copy time.
        assert system.clock.now - t0 < 10.0
