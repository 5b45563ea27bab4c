"""Integration tests for the Redis stack: data structures, server
commands, workloads, and the §6.3 app-aware guide."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.units import MIB
from repro.alloc import Mimalloc, MimallocGuide
from repro.core import DilosConfig, DilosSystem
from repro.baselines.fastswap import FastswapConfig, FastswapSystem
from repro.apps.redis import (
    DelGetWorkload,
    GetWorkload,
    LRangeWorkload,
    Quicklist,
    RedisPrefetchGuide,
    RedisServer,
    SDS_HEADER,
    sds_len,
    sds_new,
    sds_read,
    ziplist_entries,
    ziplist_new,
    ziplist_read_range,
)


def make_server(local_mib=2.0, prefetcher="readahead", guide=None,
                guided_paging=False, arena_mib=128):
    config = DilosConfig(local_mem_bytes=int(local_mib * MIB),
                         remote_mem_bytes=512 * MIB,
                         prefetcher=prefetcher)
    system = DilosSystem(config)
    alloc = Mimalloc(system, arena_bytes=arena_mib * MIB)
    if guided_paging:
        system.kernel.register_allocator_guide(MimallocGuide(alloc))
    return RedisServer(system, alloc, guide=guide)


class TestSds:
    def test_roundtrip(self):
        server = make_server()
        va = sds_new(server.system, server.alloc, b"hello sds")
        assert sds_len(server.system, va) == 9
        assert sds_read(server.system, va) == b"hello sds"

    def test_large_value_spans_pages(self):
        server = make_server()
        blob = bytes(range(256)) * 64  # 16 KiB
        va = sds_new(server.system, server.alloc, blob)
        assert sds_read(server.system, va) == blob

    def test_sub_page_read_touches_only_needed_pages(self):
        """Reading 64 B out of an evicted 64 KiB value fetches the header
        page and the page holding the slice, not all 17 — the paging
        analogue of §3.1's sub-object access (demand paging: readahead
        would fetch its whole window)."""
        server = make_server(local_mib=0.5, prefetcher="none", arena_mib=64)
        system = server.system
        va = sds_new(system, server.alloc, b"\xAB" * 65536)
        for i in range(32):  # 2 MiB of later values evict it
            sds_new(system, server.alloc, bytes([i]) * 65536)
        stats = system.kernel.comm.stats
        before = stats.ops_read
        assert sds_len(system, va) == 65536
        assert stats.ops_read - before == 1  # the header page was remote
        assert system.memory.read(va + SDS_HEADER + 30000, 64) == \
            b"\xAB" * 64
        assert stats.ops_read - before <= 3


class TestZiplist:
    def test_roundtrip(self):
        server = make_server()
        values = [b"a", b"bb", b"ccc" * 10]
        va = ziplist_new(server.system, server.alloc, values)
        assert ziplist_entries(server.system, va) == 3
        assert ziplist_read_range(server.system, va, 10) == values

    def test_partial_range(self):
        server = make_server()
        values = [bytes([i]) * 4 for i in range(20)]
        va = ziplist_new(server.system, server.alloc, values)
        assert ziplist_read_range(server.system, va, 5) == values[:5]


class TestQuicklist:
    def test_lrange_traversal(self):
        server = make_server()
        ql = Quicklist(server.system, server.alloc, fill=4)
        values = [b"item-%03d" % i for i in range(30)]
        ql.push_values(values)
        assert ql.length == 30
        assert ql.node_count == 8  # ceil(30/4)
        assert ql.lrange(10) == values[:10]
        assert ql.lrange(100) == values

    def test_incremental_push_links_nodes(self):
        server = make_server()
        ql = Quicklist(server.system, server.alloc, fill=4)
        for i in range(10):
            ql.push_values([b"v%d" % i])
        assert ql.lrange(10) == [b"v%d" % i for i in range(10)]

    def test_free_releases_allocations(self):
        server = make_server()
        ql = Quicklist(server.system, server.alloc, fill=4)
        ql.push_values([b"x" * 16] * 12)
        live_before = server.alloc.live_allocations
        ql.free()
        assert server.alloc.live_allocations < live_before
        assert ql.lrange(5) == []


class TestServer:
    def test_set_get_del(self):
        server = make_server()
        server.set(b"k", b"v" * 100)
        assert server.get(b"k") == b"v" * 100
        assert server.delete(b"k")
        assert server.get(b"k") is None
        assert not server.delete(b"k")

    def test_overwrite_frees_old_value(self):
        server = make_server()
        server.set(b"k", b"old" * 100)
        live = server.alloc.live_allocations
        server.set(b"k", b"new" * 100)
        assert server.alloc.live_allocations == live

    def test_wrongtype_rejected(self):
        server = make_server()
        server.rpush(b"l", [b"a"])
        with pytest.raises(TypeError):
            server.get(b"l")
        server.set(b"s", b"x")
        with pytest.raises(TypeError):
            server.lrange(b"s", 5)

    def test_guide_requires_dilos(self):
        system = FastswapSystem(FastswapConfig(local_mem_bytes=2 * MIB,
                                               remote_mem_bytes=64 * MIB))
        alloc = Mimalloc(system, arena_bytes=32 * MIB)
        with pytest.raises(ValueError):
            RedisServer(system, alloc, guide=RedisPrefetchGuide())


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["set", "get", "del"]),
                          st.integers(min_value=0, max_value=5),
                          st.binary(min_size=1, max_size=40)),
                max_size=40))
def test_command_mix_matches_model_property(ops):
    """A random SET/GET/DEL mix agrees with a plain-dict reference model."""
    server = make_server(arena_mib=64)
    model = {}
    for op, key_id, payload in ops:
        key = b"key:%d" % key_id
        if op == "set":
            server.set(key, payload)
            model[key] = payload
        elif op == "get":
            assert server.get(key) == model.get(key)
        elif op == "del":
            assert server.delete(key) == (key in model)
            model.pop(key, None)
    for key, expected in model.items():
        assert server.get(key) == expected


class TestWorkloads:
    def test_get_workload_verifies(self):
        server = make_server(local_mib=1.0)
        wl = GetWorkload(value_size=4096, n_keys=400, n_queries=300)
        wl.populate(server)
        stats = wl.drive(server, verify=True)
        assert stats.queries == 300
        assert stats.requests_per_second > 0
        assert stats.latencies.count == 300

    def test_mixed_sizes_draw_from_photo_mix(self):
        server = make_server(local_mib=4.0, arena_mib=256)
        wl = GetWorkload(value_size="mixed", n_keys=120, n_queries=60)
        wl.populate(server)
        wl.drive(server, verify=True)

    def test_lrange_workload_verifies(self):
        server = make_server(local_mib=1.0)
        wl = LRangeWorkload(n_lists=100, elems_per_list=32, n_queries=150)
        wl.populate(server)
        stats = wl.drive(server, verify=True)
        assert stats.latencies.count == 150

    def test_delget_workload_runs(self):
        server = make_server(local_mib=1.0)
        wl = DelGetWorkload(n_keys=2000, n_queries=500)
        wl.populate(server)
        wl.run_del_phase(server)
        stats = wl.run_get_phase(server)
        assert stats.queries == 500


class TestAppAwareGuide:
    def test_guide_correctness_on_get(self):
        guide = RedisPrefetchGuide()
        server = make_server(local_mib=1.0, guide=guide)
        wl = GetWorkload(value_size=65536, n_keys=60, n_queries=120)
        wl.populate(server)
        wl.drive(server, verify=True)
        assert guide.get_prefetches > 0

    def test_guide_correctness_on_lrange(self):
        guide = RedisPrefetchGuide()
        server = make_server(local_mib=0.5, guide=guide)
        wl = LRangeWorkload(n_lists=150, elems_per_list=32, n_queries=200)
        wl.populate(server)
        wl.drive(server, verify=True)
        assert guide.chain_fetches > 0

    def test_guide_speeds_up_lrange(self):
        """Figure 10(d): app-aware beats general-purpose prefetchers."""
        def run(guide):
            server = make_server(local_mib=0.4, prefetcher="readahead",
                                 guide=guide)
            wl = LRangeWorkload(n_lists=200, elems_per_list=48, n_queries=250)
            wl.populate(server)
            server.system.clock.advance(3000)
            return wl.drive(server).requests_per_second

        assert run(RedisPrefetchGuide()) > 1.2 * run(None)

    def test_guided_paging_with_redis_del_get(self):
        """Figure 12: guided paging reduces wire traffic on fragmented
        pages and keeps surviving values intact."""
        def run(guided):
            server = make_server(local_mib=0.4, prefetcher="none",
                                 guided_paging=guided)
            wl = DelGetWorkload(n_keys=3000, value_bytes=128, n_queries=800)
            wl.populate(server)
            wl.run_del_phase(server)
            server.system.clock.advance(5000)
            wl.run_get_phase(server)
            stats = server.system.kernel.comm.stats
            return stats.bytes_read + stats.bytes_written

        assert run(True) < run(False)
