"""Stop-and-copy migration of a computing node's memory image (§5.2).

The published DiLOS cannot live-migrate because queue pairs and registered
buffers live inside the RNIC. The paper points at MigrOS-style protocol
changes as the way out; here we implement the memory-image half of the
story, which is what the paging subsystem owns:

* :func:`checkpoint` quiesces the node (waits out in-flight fetches) and
  captures every materialized page — resident frames, remote pages, and
  guided-paging (ACTION) pages reconstructed through their vectors — plus
  the region table. Capture is charged as downtime proportional to the
  bytes moved.
* :func:`restore` boots a fresh node (possibly with a different local
  cache size or a different memory backend), re-creates the regions at
  identical virtual addresses, and lands every page *remote-first*: the
  restored node starts with a cold local cache and demand-pages its
  working set back in, exactly like a post-migration warmup.

Application-level state (allocator free lists, the Redis index) lives in
the application and travels with it; this module owns what the kernel
owns — the address space and the bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.units import PAGE_SHIFT, PAGE_SIZE
from repro.core.config import DilosConfig
from repro.core.dilos import DilosSystem
from repro.mem import pte as pte_mod

Tag = pte_mod.Tag


@dataclass
class MachineImage:
    """A quiesced snapshot of one computing node's disaggregated memory."""

    #: (size, ddc, name) per region, in original mmap order — replaying
    #: the same sequence reproduces identical base addresses.
    regions: List[Tuple[int, bool, str]]
    #: vpn -> page contents for every materialized page.
    pages: Dict[int, bytes]
    #: Simulated time at capture.
    captured_at_us: float
    #: Stop-and-copy downtime charged on the source (microseconds).
    downtime_us: float = 0.0
    metadata: Dict[str, str] = field(default_factory=dict)

    @property
    def page_count(self) -> int:
        return len(self.pages)

    @property
    def image_bytes(self) -> int:
        return sum(len(content) for content in self.pages.values())


def _quiesce(system: DilosSystem) -> None:
    """Wait out every in-flight fetch so no PTE stays FETCHING."""
    kernel = system.kernel
    pending = list(kernel._fetch_ready.values())
    if pending:
        system.clock.advance_to(max(pending))


def _capture_page(system: DilosSystem, vpn: int, entry: int) -> Optional[bytes]:
    """Materialize one page's bytes regardless of where it lives."""
    tag = pte_mod.classify(entry)
    if tag is Tag.INVALID:
        return None
    if tag is Tag.LOCAL:
        return bytes(system.frames.data(pte_mod.frame_of(entry)))
    if tag is Tag.REMOTE:
        offset = system.addr_space.remote_offset_for(vpn)
        return system.node.read_bytes(offset, PAGE_SIZE)
    if tag is Tag.ACTION:
        # Rebuild from the guided-paging vector: live ranges from the
        # memory node, zeros elsewhere (dead chunks carry no data).
        offset = system.addr_space.remote_offset_for(vpn)
        page = bytearray(PAGE_SIZE)
        for start, length in system.kernel.page_manager.action_vector(vpn):
            page[start:start + length] = system.node.read_bytes(
                offset + start, length)
        return bytes(page)
    raise AssertionError(f"unquiesced page {vpn:#x} with tag {tag}")


def checkpoint(system: DilosSystem) -> MachineImage:
    """Capture a stopped copy of ``system``'s disaggregated memory."""
    _quiesce(system)
    regions = [(r.size, r.ddc, r.name) for r in system.addr_space.regions()]
    pages: Dict[int, bytes] = {}
    for region in system.addr_space.regions():
        first = region.base >> PAGE_SHIFT
        last = (region.end - 1) >> PAGE_SHIFT
        for vpn in range(first, last + 1):
            content = _capture_page(system, vpn, system.addr_space.page_table.get(vpn))
            if content is not None:
                pages[vpn] = content
    # Downtime: the stopped node streams its image at fabric bandwidth.
    model = system.model
    nbytes = sum(len(p) for p in pages.values())
    downtime = (model.rdma_read_base
                + nbytes * model.rdma_per_byte
                + len(pages) * model.rdma_post_overhead)
    system.clock.advance(downtime)
    system.kernel.registry.add("migration.checkpoints")
    return MachineImage(regions=regions, pages=pages,
                        captured_at_us=system.clock.now,
                        downtime_us=downtime,
                        metadata={"source": system.name})


def restore(image: MachineImage, config: Optional[DilosConfig] = None,
            memory_backend=None) -> DilosSystem:
    """Boot a new node from ``image``; pages arrive remote-first (cold)."""
    system = DilosSystem(config, memory_backend=memory_backend)
    space = system.addr_space
    for size, ddc, name in image.regions:
        space.mmap(size, ddc=ddc, name=name)
    mapped = {vpn
              for region in space.regions()
              for vpn in range((region.base >> PAGE_SHIFT),
                               ((region.end - 1) >> PAGE_SHIFT) + 1)}
    for vpn, content in image.pages.items():
        if vpn not in mapped:
            raise ValueError(
                f"image page {vpn:#x} falls outside the replayed regions")
        remote_pfn = space.remote_pfn_for(vpn)
        system.node.write_bytes(system.node.slot_offset(remote_pfn), content)
        space.page_table.set(vpn, pte_mod.make_remote(remote_pfn))
    system.kernel.registry.add("migration.restored_pages", len(image.pages))
    return system
