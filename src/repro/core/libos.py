"""The assembled LibOS: kernel + allocator + loader, §5's compat layer.

:class:`LibOS` is what "booting DiLOS with an application" means in the
paper: a single address space containing the paging kernel, the user-level
allocator, and the ELF loader that patches ``malloc``/``free`` to the DDC
versions. Applications (or their modeled binaries) get the paper's API
surface:

* ``ddc_malloc`` / ``ddc_free`` — disaggregated allocations (internally
  ``mmap(MAP_DDC)``-backed through the bitmap-tracking allocator);
* ``load`` — bring up an unmodified binary with its allocation symbols
  rebound;
* ``enable_guided_paging`` / ``attach_prefetch_guide`` — plug in §4.3/4.4
  guides without touching the application.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.common.units import MIB
from repro.alloc.mimalloc import Mimalloc, MimallocGuide
from repro.core.config import DilosConfig
from repro.core.dilos import DilosSystem
from repro.core.guides import PrefetchGuide
from repro.core.loader import ElfLoader, LoadedBinary


class LibOS:
    """One application's private DiLOS instance."""

    def __init__(self, config: Optional[DilosConfig] = None,
                 arena_bytes: Optional[int] = None,
                 memory_backend=None) -> None:
        self.system = DilosSystem(config, memory_backend=memory_backend)
        if arena_bytes is None:
            arena_bytes = max(64 * MIB,
                              self.system.config.remote_mem_bytes // 2)
        self.allocator = Mimalloc(self.system, arena_bytes,
                                  name="ddc-heap")
        self.loader = ElfLoader(ddc_malloc=self.ddc_malloc,
                                ddc_free=self.ddc_free)

    # -- the compatibility layer's memory API (§5) --------------------------

    def ddc_malloc(self, size: int) -> int:
        """Allocate ``size`` bytes of disaggregated memory."""
        return self.allocator.malloc(size)

    def ddc_free(self, va: int) -> None:
        """Release a ``ddc_malloc`` allocation."""
        self.allocator.free(va)

    @property
    def memory(self):
        return self.system.memory

    @property
    def clock(self):
        return self.system.clock

    # -- loading unmodified binaries -------------------------------------------

    def load(self, symbols: Dict[str, Callable[..., Any]]) -> LoadedBinary:
        """Load a binary; ``malloc``/``free`` now resolve to DDC versions."""
        return self.loader.load(symbols)

    def hook(self, binary: LoadedBinary, name: str, wrapper) -> None:
        """Guide hooking interface — observe an application symbol."""
        ElfLoader.hook(binary, name, wrapper)

    # -- guides ----------------------------------------------------------------------

    def enable_guided_paging(self) -> None:
        """Turn on §4.4 guided paging backed by the allocator's bitmaps."""
        self.system.config.guided_paging = True
        self.system.kernel.register_allocator_guide(
            MimallocGuide(self.allocator))

    def attach_prefetch_guide(self, guide: PrefetchGuide) -> None:
        """Install an app-aware prefetcher (§4.3)."""
        self.system.kernel.register_prefetch_guide(guide)

    # -- introspection ------------------------------------------------------------------

    def metrics(self):
        """The system's :class:`~repro.obs.MetricsSnapshot` with heap and
        loader figures added to its ``extra`` bag."""
        metrics = self.system.metrics()
        metrics.extra.update(
            heap_live_allocations=self.allocator.live_allocations,
            heap_allocated_bytes=self.allocator.allocated_bytes,
            patched_symbols=self.loader.patched_symbols)
        return metrics
