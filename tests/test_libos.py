"""Tests for the assembled LibOS facade (§5 compatibility layer)."""

import pytest

from repro.common.units import MIB
from repro.core import DilosConfig
from repro.core.libos import LibOS


def make_libos(local_mib=1, **kwargs):
    return LibOS(DilosConfig(local_mem_bytes=int(local_mib * MIB),
                             remote_mem_bytes=64 * MIB, **kwargs),
                 arena_bytes=32 * MIB)


class TestDdcApi:
    def test_malloc_free_roundtrip(self):
        libos = make_libos()
        va = libos.ddc_malloc(1024)
        libos.memory.write(va, b"ddc bytes")
        assert libos.memory.read(va, 9) == b"ddc bytes"
        libos.ddc_free(va)

    def test_allocations_page_out_and_back(self):
        libos = make_libos(local_mib=1)
        vas = [libos.ddc_malloc(4096) for _ in range(1024)]  # 4 MiB
        for i, va in enumerate(vas):
            libos.memory.write(va, bytes([i % 251]) * 64)
        libos.clock.advance(5000)
        assert libos.metrics().value("reclaim.pages_evicted") > 0
        for i, va in enumerate(vas):
            assert libos.memory.read(va, 64) == bytes([i % 251]) * 64

    def test_metrics_include_heap(self):
        libos = make_libos()
        libos.ddc_malloc(100)
        metrics = libos.metrics()
        assert metrics.extra["heap_live_allocations"] == 1
        assert metrics.extra["heap_allocated_bytes"] == 100


class TestBinaryCompat:
    def test_unmodified_binary_runs_on_far_memory(self):
        """The headline compatibility flow: a 'binary' that only knows
        malloc/free/memcpy-by-address runs with its heap disaggregated."""
        libos = make_libos(local_mib=1)

        def app_main(binary, memory):
            nodes = []
            for i in range(3000):  # ~ 3000 * 1 KiB: 3x local memory
                va = binary.call("malloc", 1024)
                memory.write(va, i.to_bytes(4, "little") * 4)
                nodes.append((va, i))
            errors = 0
            for va, i in nodes:
                if memory.read(va, 16) != i.to_bytes(4, "little") * 4:
                    errors += 1
            for va, _ in nodes:
                binary.call("free", va)
            return errors

        binary = libos.load({
            "malloc": lambda size: pytest.fail("libc malloc leaked through"),
            "free": lambda va: pytest.fail("libc free leaked through"),
        })
        assert app_main(binary, libos.memory) == 0
        assert libos.metrics().extra["patched_symbols"] == 2
        assert libos.metrics().extra["heap_live_allocations"] == 0

    def test_hooking_through_facade(self):
        libos = make_libos()
        binary = libos.load({"step": lambda x: x + 1})
        seen = []
        libos.hook(binary, "step",
                   lambda orig: (lambda x: (seen.append(x), orig(x))[1]))
        assert binary.call("step", 41) == 42
        assert seen == [41]


class TestGuidesThroughFacade:
    def test_enable_guided_paging(self):
        libos = make_libos(local_mib=0.5)
        libos.enable_guided_paging()
        vas = [libos.ddc_malloc(128) for _ in range(8000)]
        for va in vas:
            libos.memory.write(va, b"g" * 128)
        for va in vas[::2]:
            libos.ddc_free(va)
        libos.clock.advance(8000)
        for va in vas[1::2]:
            assert libos.memory.read(va, 128) == b"g" * 128
        assert libos.system.kernel.registry.value("guide.action_fetches") > 0

    def test_attach_prefetch_guide(self):
        from repro.core.guides import GuideContext, PrefetchGuide

        class CountingGuide(PrefetchGuide):
            def __init__(self):
                self.faults = 0

            def on_fault(self, ctx: GuideContext, va: int) -> bool:
                self.faults += 1
                return False  # fall through to the default prefetcher

        libos = make_libos(local_mib=0.5)
        guide = CountingGuide()
        libos.attach_prefetch_guide(guide)
        vas = [libos.ddc_malloc(4096) for _ in range(512)]
        for va in vas:
            libos.memory.write(va, b"x")
        libos.clock.advance(5000)
        for va in vas:
            libos.memory.read(va, 1)
        assert guide.faults > 0
