"""Virtual address space: regions, the unified page table, remote backing.

The compatibility layer of §5 exposes two kinds of mappings: local-only
memory and disaggregated (``MAP_DDC``) memory whose pages migrate to the
memory node. A :class:`Region` records which kind a VA range is; the kernel
consults it on first-touch faults.

Remote backing slots are allocated lazily: a DDC page gets a remote page
frame the first time the kernel needs one (first eviction), and keeps it for
the lifetime of the mapping so REMOTE PTEs can simply carry the remote pfn.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import InvalidAddressError
from repro.common.units import PAGE_SIZE, align_up
from repro.mem.page_table import PageTable
from repro.mem.remote import MemoryNode


@dataclass(frozen=True)
class Region:
    """A contiguous mapped VA range."""

    base: int
    size: int
    ddc: bool
    name: str
    #: mmap PROT_WRITE; read-only mappings trap stores (SIGSEGV model).
    writable: bool = True

    @property
    def end(self) -> int:
        return self.base + self.size


class AddressSpace:
    """The single address space shared by the app and the kernel."""

    #: Mappings start well above zero so that null-ish pointers fault.
    _MMAP_BASE = 0x0000_1000_0000

    def __init__(self, memory_node: Optional[MemoryNode]) -> None:
        self.page_table = PageTable()
        self._memory_node = memory_node
        #: Live regions in base order (``mmap`` only ever maps above
        #: every earlier region), with their bases for bisection.
        self._regions: List[Region] = []
        self._bases: List[int] = []
        self._next_base = self._MMAP_BASE
        #: vpn -> (remote pfn, its byte offset in the remote region).
        self._remote_slot: Dict[int, Tuple[int, int]] = {}

    # -- region management --------------------------------------------------

    def mmap(self, size: int, ddc: bool = True, name: str = "anon",
             writable: bool = True) -> Region:
        """Map ``size`` bytes (page-rounded); returns the new region."""
        if size <= 0:
            raise ValueError("mmap size must be positive")
        if ddc and self._memory_node is None:
            raise ValueError("MAP_DDC requires a memory node")
        size = align_up(size)
        region = Region(self._next_base, size, ddc, name, writable)
        # Leave an unmapped guard page between regions.
        self._next_base = region.end + PAGE_SIZE
        self._regions.append(region)
        self._bases.append(region.base)
        return region

    def munmap(self, region: Region) -> None:
        """Remove ``region`` from the address space.

        The caller (kernel) is responsible for having released its frames,
        PTEs and remote slots first.
        """
        index = self._regions.index(region)
        del self._regions[index]
        del self._bases[index]

    def region_for(self, va: int) -> Region:
        """The region containing ``va``; raises on unmapped addresses."""
        index = bisect_right(self._bases, va) - 1
        if index >= 0:
            region = self._regions[index]
            if va < region.base + region.size:
                return region
        raise InvalidAddressError(f"address {va:#x} is not mapped")

    def regions(self) -> List[Region]:
        return list(self._regions)

    # -- remote backing -------------------------------------------------------

    def _allocate_backing(self, vpn: int) -> Tuple[int, int]:
        if self._memory_node is None:
            raise InvalidAddressError(
                f"page {vpn:#x} has no remote backing (no memory node)")
        slot = self._memory_node.alloc_slot()
        backing = self._remote_slot[vpn] = (
            slot, self._memory_node.slot_offset(slot))
        return backing

    def remote_pfn_for(self, vpn: int) -> int:
        """Remote page frame backing ``vpn``, allocated on first use."""
        backing = self._remote_slot.get(vpn)
        if backing is None:
            backing = self._allocate_backing(vpn)
        return backing[0]

    def remote_offset_for(self, vpn: int) -> int:
        """Byte offset of ``vpn``'s backing within the remote region
        (allocating the backing on first use, like :meth:`remote_pfn_for`)."""
        backing = self._remote_slot.get(vpn)
        if backing is None:
            backing = self._allocate_backing(vpn)
        return backing[1]

    def has_remote_backing(self, vpn: int) -> bool:
        return vpn in self._remote_slot

    def release_remote(self, vpn: int) -> None:
        """Free the remote slot backing ``vpn`` (on munmap/free)."""
        backing = self._remote_slot.pop(vpn, None)
        if backing is not None and self._memory_node is not None:
            self._memory_node.free_slot(backing[0])
