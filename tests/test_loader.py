"""Unit tests for the compatibility layer (ELF loader model, §5)."""

import pytest

from repro.common.units import MIB
from repro.alloc import Mimalloc
from repro.core import DilosConfig, DilosSystem
from repro.core.loader import ElfLoader, LoadedBinary


@pytest.fixture()
def setup():
    system = DilosSystem(DilosConfig(local_mem_bytes=2 * MIB,
                                     remote_mem_bytes=64 * MIB))
    alloc = Mimalloc(system, arena_bytes=16 * MIB)
    loader = ElfLoader(ddc_malloc=alloc.malloc, ddc_free=alloc.free)
    return system, alloc, loader


def libc_malloc(size):
    raise AssertionError("libc malloc must be patched away")


def libc_free(va):
    raise AssertionError("libc free must be patched away")


class TestPatching:
    def test_malloc_free_rebound_to_ddc(self, setup):
        system, alloc, loader = setup
        binary = loader.load({"malloc": libc_malloc, "free": libc_free,
                              "main": lambda: 0})
        va = binary.call("malloc", 256)  # must NOT hit libc_malloc
        assert alloc.allocation_size(va) == 256
        binary.call("free", va)
        assert alloc.allocation_size(va) is None
        assert loader.patched_symbols == 2

    def test_unrelated_symbols_untouched(self, setup):
        _, _, loader = setup
        marker = object()
        binary = loader.load({"compute": lambda: marker})
        assert binary.call("compute") is marker

    def test_binary_without_malloc(self, setup):
        _, _, loader = setup
        loader.load({"main": lambda: 0})
        assert loader.patched_symbols == 0

    def test_undefined_symbol(self, setup):
        _, _, loader = setup
        binary = loader.load({})
        with pytest.raises(KeyError):
            binary.sym("missing")
        assert not binary.defined("missing")


class TestHooking:
    def test_hook_observes_calls(self, setup):
        _, _, loader = setup
        calls = []
        binary = loader.load({"traverse": lambda node: node * 2})

        def wrapper(original):
            def hooked(node):
                calls.append(node)
                return original(node)
            return hooked

        ElfLoader.hook(binary, "traverse", wrapper)
        assert binary.call("traverse", 21) == 42
        assert calls == [21]

    def test_patched_memory_really_is_disaggregated(self, setup):
        """The compatibility claim end-to-end: an 'unmodified binary'
        allocates through patched malloc and its data pages to the
        memory node under pressure."""
        system, alloc, loader = setup
        binary = loader.load({"malloc": libc_malloc, "free": libc_free})
        vas = [binary.call("malloc", 4096) for _ in range(1500)]  # ~6 MiB
        for i, va in enumerate(vas):
            system.memory.write(va, bytes([i % 251]) * 64)
        system.clock.advance(5000)
        assert system.metrics().value("reclaim.pages_evicted") > 0
        for i, va in enumerate(vas):
            assert system.memory.read(va, 64) == bytes([i % 251]) * 64
