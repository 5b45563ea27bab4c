"""The system facade applications program against.

The paper's compatibility claim is that applications keep using POSIX-ish
memory APIs (``malloc``/``free``/loads/stores) and the kernel underneath is
interchangeable. :class:`BaseSystem` is that contract: DiLOS and Fastswap
both implement it, and every workload in :mod:`repro.apps` runs unmodified
on either — only AIFM (by design) needs ported workloads.
"""

from __future__ import annotations

import abc
from typing import Any, Optional

from repro.common.clock import Clock
from repro.common.units import PAGE_SIZE
from repro.core.spec import BackendSpec, make_backend
from repro.mem.addrspace import AddressSpace, Region
from repro.mem.frames import FramePool
from repro.mem.remote import MemoryNode
from repro.mem.vm import VirtualMemory
from repro.net.latency import LatencyModel
from repro.obs import MetricsSnapshot, Observability


class BaseSystem(abc.ABC):
    """A booted computing node attached to a memory node."""

    #: The kernel's config dataclass (``DilosConfig``, ``FastswapConfig``).
    config: Any
    clock: Clock
    model: LatencyModel
    node: MemoryNode
    addr_space: AddressSpace
    frames: FramePool
    vm: VirtualMemory
    #: Registry + tracer bundle; inject via the constructor's ``obs=``.
    obs: Observability
    #: The fault handler the subclass builds over the skeleton; it owns
    #: ``release_region``.
    kernel: Any

    def __init__(self, config: Any, memory_backend: BackendSpec = None,
                 obs: Optional[Observability] = None,
                 clock: Optional[Clock] = None) -> None:
        """Boot the node skeleton every paging kernel shares: clock,
        memory backend, frames, address space, VM and observability.

        ``memory_backend`` takes what :attr:`SystemSpec.backend
        <repro.core.spec.SystemSpec.backend>` takes: ``None`` (a fresh
        memory node), a backend spec string such as ``"sharded:4"``, or
        a ready backend object, all resolved by
        :func:`~repro.core.spec.make_backend`. ``clock`` injects a shared
        timeline so independently booted systems can be co-scheduled;
        ``obs`` injects a shared registry or an enabled tracer
        (``Observability.tracing()``). The subclass then builds its
        kernel over these.
        """
        config.validate()
        self.config = config
        self.clock = clock or Clock()
        self.model = config.latency
        self.node = make_backend(memory_backend, config.remote_mem_bytes)
        self.frames = FramePool(config.local_mem_bytes // PAGE_SIZE)
        self.addr_space = AddressSpace(self.node)
        self.vm = VirtualMemory(self.clock, self.addr_space.page_table,
                                self.frames, self.model.cpu_copy_per_byte)
        self.obs = obs or Observability.default()
        registry = self.obs.registry
        registry.gauge("tlb.hits", lambda: self.vm.tlb.hits)
        registry.gauge("tlb.misses", lambda: self.vm.tlb.misses)

    # -- memory mapping ----------------------------------------------------

    def mmap(self, size: int, ddc: bool = True, name: str = "anon",
             writable: bool = True) -> Region:
        """Map ``size`` bytes; ``ddc=True`` pages migrate to the memory
        node; ``writable=False`` write-protects the mapping."""
        return self.addr_space.mmap(size, ddc=ddc, name=name,
                                    writable=writable)

    def munmap(self, region: Region) -> None:
        """Tear down a region: frames, PTEs and remote backing."""
        self.kernel.release_region(region)
        self.addr_space.munmap(region)

    # -- memory access -------------------------------------------------------

    @property
    def memory(self) -> VirtualMemory:
        return self.vm

    # -- CPU time --------------------------------------------------------------

    def cpu(self, microseconds: float) -> None:
        """Charge application compute time."""
        self.clock.advance(microseconds)

    def cpu_cycles(self, cycles: float) -> None:
        """Charge application compute time in CPU cycles."""
        self.clock.advance(self.model.cycles(cycles))

    @property
    def sync_overhead_us(self) -> float:
        """Cost of one contended synchronization op on this kernel's
        primitives (OSv's are less mature than Linux's, §6.2)."""
        return self.model.sync_overhead_linux

    def metrics(self) -> MetricsSnapshot:
        """A typed snapshot of every instrument the harness reports on.

        The snapshot is built from the system's
        :class:`~repro.obs.MetricsRegistry` under canonical dotted names
        (``fault.major``, ``net.bytes_read``, ...); read one with
        ``metrics().value("fault.major")``.
        """
        return self.obs.registry.snapshot(self.name, self.clock.now)

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Presentation name, e.g. ``DiLOS with readahead``."""

