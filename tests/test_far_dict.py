"""Unit + property tests for the far-memory hash table, and the Redis
server's far-index mode."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.units import MIB
from repro.alloc import Mimalloc
from repro.core import DilosConfig, DilosSystem
from repro.apps.redis import GetWorkload, RedisServer
from repro.apps.redis.dict import BUCKET_SIZE, FarDict, MAX_KEY, fnv1a


def make_env(local_mib=4):
    system = DilosSystem(DilosConfig(local_mem_bytes=int(local_mib * MIB),
                                     remote_mem_bytes=128 * MIB))
    alloc = Mimalloc(system, arena_bytes=64 * MIB)
    return system, alloc


class TestFnv:
    def test_deterministic(self):
        assert fnv1a(b"key") == fnv1a(b"key")

    def test_distinct_keys_distinct_hashes(self):
        hashes = {fnv1a(b"key:%d" % i) for i in range(1000)}
        assert len(hashes) == 1000

    def test_empty_key(self):
        assert fnv1a(b"") == 0xCBF29CE484222325


class TestFarDict:
    def test_put_get(self):
        system, alloc = make_env()
        d = FarDict(system, alloc)
        d.put(b"alpha", 111)
        d.put(b"beta", 222)
        assert d.get(b"alpha") == 111
        assert d.get(b"beta") == 222
        assert d.get(b"gamma") is None
        assert len(d) == 2

    def test_replace(self):
        system, alloc = make_env()
        d = FarDict(system, alloc)
        d.put(b"k", 1)
        d.put(b"k", 2)
        assert d.get(b"k") == 2
        assert len(d) == 1

    def test_delete_and_tombstone_reuse(self):
        system, alloc = make_env()
        d = FarDict(system, alloc)
        d.put(b"k", 1)
        assert d.delete(b"k")
        assert not d.delete(b"k")
        assert d.get(b"k") is None
        d.put(b"k", 3)
        assert d.get(b"k") == 3

    def test_probe_past_deleted_entries(self):
        """A tombstone must not terminate a probe chain."""
        system, alloc = make_env()
        d = FarDict(system, alloc, initial_capacity=8, max_load=0.8)
        keys = [b"key:%d" % i for i in range(5)]
        for i, key in enumerate(keys):
            d.put(key, i)
        d.delete(keys[0])
        for i, key in enumerate(keys[1:], start=1):
            assert d.get(key) == i

    def test_resize_preserves_entries(self):
        system, alloc = make_env()
        d = FarDict(system, alloc, initial_capacity=8)
        for i in range(200):
            d.put(b"key:%d" % i, i * 7)
        assert d.resizes > 0
        assert d.capacity > 8
        for i in range(200):
            assert d.get(b"key:%d" % i) == i * 7

    def test_recycled_pages_read_as_empty(self):
        """calloc semantics: a table built on recycled arena pages must
        not hallucinate entries from stale bytes."""
        system, alloc = make_env()
        junk = alloc.malloc(8 * 1024)
        system.memory.write(junk, b"\xFF" * 8 * 1024)
        alloc.free(junk)
        d = FarDict(system, alloc, initial_capacity=64)
        assert d.get(b"anything") is None
        assert list(d.items()) == []

    def test_key_length_limit(self):
        system, alloc = make_env()
        d = FarDict(system, alloc)
        d.put(b"x" * MAX_KEY, 1)
        with pytest.raises(ValueError):
            d.put(b"x" * (MAX_KEY + 1), 1)

    def test_bad_parameters(self):
        system, alloc = make_env()
        with pytest.raises(ValueError):
            FarDict(system, alloc, initial_capacity=100)  # not power of 2
        with pytest.raises(ValueError):
            FarDict(system, alloc, max_load=0.95)

    def test_items_iterates_live_entries(self):
        system, alloc = make_env()
        d = FarDict(system, alloc)
        for i in range(20):
            d.put(b"k%d" % i, i)
        d.delete(b"k3")
        got = dict(d.items())
        assert len(got) == 19
        assert b"k3" not in got
        assert got[b"k7"] == 7

    def test_survives_eviction(self):
        """The table itself pages to the memory node and back."""
        system, alloc = make_env(local_mib=0.25)
        d = FarDict(system, alloc, initial_capacity=8192)  # 512 KiB table
        for i in range(1000):
            d.put(b"key:%d" % i, i)
        system.clock.advance(5000)
        assert system.metrics().value("reclaim.pages_evicted") > 0
        for i in range(0, 1000, 13):
            assert d.get(b"key:%d" % i) == i


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.binary(min_size=1, max_size=MAX_KEY),
                          st.integers(min_value=0, max_value=2 ** 60),
                          st.booleans()), max_size=80))
def test_far_dict_matches_python_dict_property(ops):
    system, alloc = make_env()
    d = FarDict(system, alloc, initial_capacity=8)
    shadow = {}
    for key, value, is_delete in ops:
        if is_delete:
            assert d.delete(key) == (key in shadow)
            shadow.pop(key, None)
        else:
            d.put(key, value)
            shadow[key] = value
    assert len(d) == len(shadow)
    for key, value in shadow.items():
        assert d.get(key) == value
    assert dict(d.items()) == shadow


class TestRedisFarIndex:
    def test_get_set_del_through_far_index(self):
        system, alloc = make_env()
        server = RedisServer(system, alloc, index="far")
        server.set(b"k", b"value-1")
        assert server.get(b"k") == b"value-1"
        server.set(b"k", b"value-2")  # overwrite frees the old SDS
        assert server.get(b"k") == b"value-2"
        assert server.delete(b"k")
        assert server.get(b"k") is None
        assert server.dbsize == 0

    def test_lists_rejected_in_far_mode(self):
        system, alloc = make_env()
        server = RedisServer(system, alloc, index="far")
        with pytest.raises(ValueError):
            server.rpush(b"l", [b"x"])

    def test_bad_index_mode(self):
        system, alloc = make_env()
        with pytest.raises(ValueError):
            RedisServer(system, alloc, index="remote")

    def test_get_workload_on_far_index(self):
        system, alloc = make_env(local_mib=1)
        server = RedisServer(system, alloc, index="far")
        workload = GetWorkload(value_size=4096, n_keys=300, n_queries=300)
        workload.populate(server)
        system.clock.advance(5000)
        stats = workload.drive(server, verify=True)
        assert stats.requests_per_second > 0

    def test_far_index_costs_more_than_local(self):
        """Index probes fault like everything else — the far index is
        slower under memory pressure, as §6.2's irregularity argument
        implies."""
        def run(index):
            system, alloc = make_env(local_mib=1)
            server = RedisServer(system, alloc, index=index)
            workload = GetWorkload(value_size=4096, n_keys=400,
                                   n_queries=400)
            workload.populate(server)
            system.clock.advance(5000)
            return workload.drive(server).requests_per_second

        assert run("far") < run("local")
