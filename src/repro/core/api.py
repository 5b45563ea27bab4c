"""The system facade applications program against.

The paper's compatibility claim is that applications keep using POSIX-ish
memory APIs (``malloc``/``free``/loads/stores) and the kernel underneath is
interchangeable. :class:`BaseSystem` is that contract: DiLOS and Fastswap
both implement it, and every workload in :mod:`repro.apps` runs unmodified
on either — only AIFM (by design) needs ported workloads.
"""

from __future__ import annotations

import abc

from repro.common.clock import Clock
from repro.common.units import PAGE_SIZE
from repro.mem.addrspace import AddressSpace, Region
from repro.mem.frames import FramePool
from repro.mem.remote import MemoryNode
from repro.mem.vm import VirtualMemory
from repro.net.latency import LatencyModel
from repro.obs import MetricsSnapshot, Observability


class BaseSystem(abc.ABC):
    """A booted computing node attached to a memory node."""

    clock: Clock
    model: LatencyModel
    node: MemoryNode
    addr_space: AddressSpace
    frames: FramePool
    vm: VirtualMemory
    #: Registry + tracer bundle; inject via the constructor's ``obs=``.
    obs: Observability

    # -- memory mapping ----------------------------------------------------

    def mmap(self, size: int, ddc: bool = True, name: str = "anon",
             writable: bool = True) -> Region:
        """Map ``size`` bytes; ``ddc=True`` pages migrate to the memory
        node; ``writable=False`` write-protects the mapping."""
        return self.addr_space.mmap(size, ddc=ddc, name=name,
                                    writable=writable)

    @abc.abstractmethod
    def munmap(self, region: Region) -> None:
        """Tear down a region: frames, PTEs and remote backing."""

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

    @abc.abstractmethod
    def metrics(self) -> MetricsSnapshot:
        """A typed snapshot of every instrument the harness reports on.

        The snapshot is built from the system's
        :class:`~repro.obs.MetricsRegistry` under canonical dotted names
        (``fault.major``, ``net.bytes_read``, ...); read one with
        ``metrics().value("fault.major")``.
        """

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Presentation name, e.g. ``DiLOS with readahead``."""


def page_count(nbytes: int) -> int:
    """Pages needed to hold ``nbytes``."""
    return (nbytes + PAGE_SIZE - 1) // PAGE_SIZE
