"""Unit + integration tests for the AIFM baseline."""

import pytest

from repro.common.units import KIB, MIB
from repro.baselines.aifm import AifmConfig, AifmRuntime, RemArray


def make_runtime(heap_mib=1, remote_mib=64, **kwargs):
    return AifmRuntime(AifmConfig(local_heap_bytes=heap_mib * MIB,
                                  remote_mem_bytes=remote_mib * MIB,
                                  **kwargs))


class TestObjects:
    def test_roundtrip_local(self):
        rt = make_runtime()
        ptr = rt.allocate(100, data=b"hello")
        assert ptr.read(0, 5) == b"hello"
        assert ptr.size == 100

    def test_write_read(self):
        rt = make_runtime()
        ptr = rt.allocate(64)
        ptr.write(b"abc", offset=10)
        assert ptr.read(10, 3) == b"abc"

    def test_bounds_checked(self):
        rt = make_runtime()
        ptr = rt.allocate(16)
        with pytest.raises(ValueError):
            ptr.read(10, 10)
        with pytest.raises(ValueError):
            ptr.write(b"x" * 20)

    def test_free_then_deref_rejected(self):
        rt = make_runtime()
        ptr = rt.allocate(16)
        ptr.free()
        with pytest.raises(ValueError):
            ptr.read()

    def test_deref_charges_check(self):
        rt = make_runtime()
        ptr = rt.allocate(16, data=b"x" * 16)
        t0 = rt.clock.now
        ptr.read()
        assert rt.clock.now - t0 >= rt.model.aifm_deref_check


class TestEvacuation:
    def test_heap_stays_under_budget(self):
        rt = make_runtime(heap_mib=1)
        for i in range(1000):
            rt.allocate(4 * KIB, data=bytes([i % 256]) * 16)
        assert rt.heap_used <= rt.config.local_heap_bytes
        assert rt.registry.value("reclaim.pages_evicted") > 0

    def test_data_survives_evacuation(self):
        rt = make_runtime(heap_mib=1)
        ptrs = [rt.allocate(4 * KIB, data=bytes([i % 251]) * 64)
                for i in range(1000)]
        for i, ptr in enumerate(ptrs):
            assert ptr.read(0, 64) == bytes([i % 251]) * 64

    def test_miss_fetches_object(self):
        rt = make_runtime(heap_mib=1)
        ptrs = [rt.allocate(4 * KIB) for _ in range(1000)]
        assert not ptrs[0].is_local()
        ptrs[0].read(0, 1)
        assert ptrs[0].is_local()
        assert rt.registry.value("fault.major") >= 1

    def test_tcp_miss_slower_than_rdma(self):
        def miss_time(transport):
            rt = make_runtime(heap_mib=1, transport=transport)
            ptrs = [rt.allocate(4 * KIB) for _ in range(1000)]
            t0 = rt.clock.now
            ptrs[0].read(0, 1)
            return rt.clock.now - t0

        gap = miss_time("tcp") - miss_time("rdma")
        model = make_runtime().model
        assert gap == pytest.approx(model.tcp_extra, abs=0.2)


class TestRemArray:
    def test_element_roundtrip(self):
        rt = make_runtime(heap_mib=4)
        arr = RemArray(rt, count=1000, item_size=8)
        for i in range(1000):
            arr.set(i, i.to_bytes(8, "little"))
        for i in range(0, 1000, 7):
            assert int.from_bytes(arr.get(i), "little") == i

    def test_roundtrip_under_pressure(self):
        rt = make_runtime(heap_mib=1)
        arr = RemArray(rt, count=4096, item_size=512)  # 2 MiB > 1 MiB heap
        for i in range(4096):
            arr.set(i, i.to_bytes(8, "little") * 64)
        assert rt.registry.value("reclaim.pages_evicted") > 0
        for i in range(4096):
            assert arr.get(i) == i.to_bytes(8, "little") * 64

    def test_index_bounds(self):
        rt = make_runtime()
        arr = RemArray(rt, count=10, item_size=8)
        with pytest.raises(IndexError):
            arr.get(10)

    def test_scan_yields_in_order(self):
        rt = make_runtime(heap_mib=1)
        arr = RemArray(rt, count=2048, item_size=8)
        for i in range(2048):
            arr.set(i, i.to_bytes(8, "little"))
        values = [int.from_bytes(item, "little") for item in arr.scan()]
        assert values == list(range(2048))

    def test_scan_prefetch_overlaps(self):
        """A prefetched scan over cold data beats demand misses clearly."""
        def scan_time(depth):
            rt = make_runtime(heap_mib=1, prefetch_depth=depth)
            arr = RemArray(rt, count=8192, item_size=8)
            for i in range(8192):
                arr.set(i, b"\x01" * 8)
            # Evacuate everything by blowing through the heap.
            spill = [rt.allocate(4 * KIB) for _ in range(300)]
            for ptr in spill:
                ptr.read(0, 1)
            t0 = rt.clock.now
            for _item in arr.scan():
                rt.cpu(0.02)
            return rt.clock.now - t0

        assert scan_time(8) < 0.75 * scan_time(0)

    def test_scan_chunks_bulk(self):
        rt = make_runtime(heap_mib=1)
        arr = RemArray(rt, count=1024, item_size=8)
        for i in range(1024):
            arr.set(i, bytes([i % 256]) * 8)
        total = b"".join(arr.scan_chunks())
        assert len(total) == 1024 * 8
        assert total[8:16] == bytes([1]) * 8


class TestRemList:
    def test_append_iterate(self):
        rt = make_runtime(heap_mib=4)
        from repro.baselines.aifm import RemList
        lst = RemList(rt)
        for i in range(50):
            lst.append(b"item-%03d" % i)
        assert len(lst) == 50
        assert list(lst) == [b"item-%03d" % i for i in range(50)]

    def test_iterate_under_pressure(self):
        rt = make_runtime(heap_mib=1)
        from repro.baselines.aifm import RemList
        lst = RemList(rt)
        for i in range(3000):  # ~3000 x 1 KiB nodes >> 1 MiB heap
            lst.append(i.to_bytes(4, "little") * 256)
        values = list(lst)
        assert len(values) == 3000
        assert values[1234] == (1234).to_bytes(4, "little") * 256
        assert rt.registry.value("reclaim.pages_evicted") > 0

    def test_runahead_overlaps_fetches_with_compute(self):
        """Pointer chasing serializes at fetch latency — the pipeline can
        only hide the per-node *compute*, so the win is modest; what it
        does do is turn demand misses into overlapped prefetches."""
        from repro.baselines.aifm import RemList

        def traverse(runahead):
            rt = make_runtime(heap_mib=1)
            lst = RemList(rt, runahead=runahead)
            for i in range(2000):
                lst.append(b"x" * 1024)
            spill = [rt.allocate(4 * KIB) for _ in range(300)]
            for ptr in spill:
                ptr.read(0, 1)
            t0 = rt.clock.now
            for _payload in lst:
                rt.cpu(0.5)
            return rt.clock.now - t0, rt.registry.value("fault.major")

        t_none, misses_none = traverse(0)
        t_ahead, misses_ahead = traverse(2)
        assert misses_ahead < 0.3 * misses_none
        assert t_ahead < t_none

    def test_free_releases_nodes(self):
        rt = make_runtime(heap_mib=4)
        from repro.baselines.aifm import RemList
        lst = RemList(rt)
        for i in range(20):
            lst.append(b"n")
        allocated = rt.registry.value("heap.objects_allocated")
        lst.free()
        assert rt.registry.value("heap.objects_freed") == allocated
        assert list(lst) == []


class TestRemHashTable:
    def test_put_get_delete(self):
        rt = make_runtime(heap_mib=4)
        from repro.baselines.aifm import RemHashTable
        table = RemHashTable(rt)
        table.put(b"k", b"value")
        assert table.get(b"k") == b"value"
        assert b"k" in table
        assert table.delete(b"k")
        assert table.get(b"k") is None
        assert not table.delete(b"k")

    def test_overwrite_frees_old_object(self):
        rt = make_runtime(heap_mib=4)
        from repro.baselines.aifm import RemHashTable
        table = RemHashTable(rt)
        table.put(b"k", b"old" * 100)
        table.put(b"k", b"new" * 100)
        assert table.get(b"k") == b"new" * 100
        assert rt.registry.value("heap.objects_freed") == 1

    def test_values_survive_evacuation(self):
        rt = make_runtime(heap_mib=1)
        from repro.baselines.aifm import RemHashTable
        table = RemHashTable(rt)
        for i in range(2000):
            table.put(b"key:%d" % i, bytes([i % 251]) * 1024)
        assert rt.registry.value("reclaim.pages_evicted") > 0
        for i in range(0, 2000, 17):
            assert table.get(b"key:%d" % i) == bytes([i % 251]) * 1024
