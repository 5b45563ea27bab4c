"""The DiLOS kernel: unified-page-table paging for memory disaggregation.

§4.2's fault handler in full:

* the handler consults exactly one structure — the unified page table —
  before issuing an asynchronous one-sided READ;
* a REMOTE PTE flips to FETCHING so concurrent faulters wait instead of
  duplicating the fetch;
* the PTE hit tracker and the prefetcher run *inside* the 2-3 us window
  while the 4 KiB page is on the wire, so they add no critical-path time;
* fetched and prefetched pages are mapped immediately (no swap cache), so
  the only "minor faults" left are genuine waits on in-flight pages;
* reclamation is the page manager's background job; the handler only pops
  a frame off a free list.

ACTION PTEs carry the §4.4 guided-paging vector: pages evicted by the
scatter-gather path are refetched as exactly their live ranges.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional

from repro.common.clock import Clock
from repro.common.units import PAGE_SHIFT, PAGE_SIZE
from repro.core.api import BaseSystem
from repro.core.comm import CommModule
from repro.core.config import DilosConfig
from repro.core.guides import AllocatorGuide, GuideContext, PrefetchGuide
from repro.core.page_manager import PageManager
from repro.core.prefetch import PteHitTracker, make_prefetcher
from repro.core.spec import BackendSpec
from repro.mem import pte as pte_mod
from repro.mem.addrspace import AddressSpace, Region
from repro.mem.frames import FramePool
from repro.mem.remote import MemoryNode, NodeFailedError
from repro.mem.vm import VirtualMemory
from repro.net.qp import Completion
from repro.obs import Observability

Tag = pte_mod.Tag

# PTE bits the fault path tests directly (see repro.mem.pte's tag table).
_PRESENT = pte_mod.PTE_PRESENT
_WRITE = pte_mod.PTE_WRITE
_USER = pte_mod.PTE_USER
_TAG_MASK = _PRESENT | _WRITE | _USER
#: ACTION's tag bits (REMOTE's are _WRITE alone, FETCHING's _USER alone).
_ACTION = _WRITE | _USER


class _PrefetchOps:
    """The capability surface handed to prefetch policies."""

    def __init__(self, kernel: "DilosKernel") -> None:
        # The kernel's own bound methods: a readahead window calls
        # ``prefetch`` once per page.
        self.prefetch = kernel.prefetch_vpn
        self.hit_ratio = kernel.hit_tracker.hit_ratio


class DilosKernel:
    """Page-fault handling, prefetch, and guided paging for one node."""

    def __init__(
        self,
        clock: Clock,
        config: DilosConfig,
        addr_space: AddressSpace,
        frames: FramePool,
        vm: VirtualMemory,
        node: MemoryNode,
        obs: Optional[Observability] = None,
    ) -> None:
        self.clock = clock
        self.config = config
        self.model = config.latency
        self._as = addr_space
        self._pt = addr_space.page_table
        self._frames = frames
        self._vm = vm
        self._node = node
        self.obs = obs or Observability.default()
        self.registry = self.obs.registry
        self.tracer = self.obs.tracer
        # Pre-register the headline counters so metrics() always carries
        # them, at zero on a run that never bumps them.
        for key in ("fault.major", "fault.minor", "fault.first_touch",
                    "prefetch.issued", "reclaim.direct",
                    "reclaim.pages_evicted", "reclaim.pages_cleaned"):
            self.registry.counter(key)
        # Per-page counters, bound once (the fault path bumps ``value``).
        self._major_faults = self.registry.counter("fault.major")
        self._minor_faults = self.registry.counter("fault.minor")
        self._first_touches = self.registry.counter("fault.first_touch")
        self._prefetches = self.registry.counter("prefetch.issued")
        self.breakdown = self.registry.breakdown("fault.breakdown")
        self.minor_wait = self.registry.histogram("fault.minor_wait_us")
        self.comm = CommModule(
            clock, self.model, node,
            shared_single_qp=config.shared_single_qp,
            extra_completion_delay=(self.model.tcp_extra
                                    if config.tcp_emulation else 0.0),
            tracer=self.tracer,
            fault_plan=config.net_faults,
            retry=config.net_retry,
            registry=self.registry,
            fabric=config.fabric,
        )
        self.page_manager = PageManager(
            clock, config, self._pt, frames, addr_space, vm.tlb,
            self.comm, self.obs)
        self.prefetcher = make_prefetcher(config.prefetcher)
        self.hit_tracker = PteHitTracker(clock, self._pt, self.model,
                                         tracer=self.tracer)
        self._ops = _PrefetchOps(self)
        self._prefetch_guide: Optional[PrefetchGuide] = None
        self._guide_ctx = GuideContext(self)
        #: Paging module -> its QP, bound on the module's first fetch
        #: (the communication module creates QPs in first-use order).
        self._qps: Dict[str, Any] = {}
        #: fetch token -> completion time, for FETCHING-PTE waiters.
        self._fetch_ready: Dict[int, float] = {}
        self._next_token = 1
        #: Ablation state: prefetched frames parked behind an indirection.
        self._swap_cache: Dict[int, int] = {}
        vm.attach_kernel(self.handle_fault)
        self.page_manager.start()

    # -- guide registration --------------------------------------------------

    def register_prefetch_guide(self, guide: Optional[PrefetchGuide]) -> None:
        """Install an app-aware prefetcher (a third-party binary in the
        paper's deployment model; see §4.1)."""
        self._prefetch_guide = guide

    def register_allocator_guide(self, guide: Optional[AllocatorGuide]) -> None:
        """Install the allocator guide used by §4.4 guided paging."""
        self.page_manager.set_allocator_guide(guide)

    # -- the page fault handler (§4.2) ------------------------------------------

    def handle_fault(self, va: int, is_write: bool) -> None:
        clock = self.clock
        model = self.model
        tracer = self.tracer
        vpn = va >> PAGE_SHIFT
        fault_start = clock.now
        # Two charges, not one merged sum: float addition is not
        # associative, and the golden-master suite pins the clock to the
        # exact accumulation order of the original per-component charges.
        clock.advance(model.fault_entry)
        clock.advance(model.dilos_pte_check)
        entry = self._pt.get(vpn)

        if entry & _PRESENT:
            # A prefetch install landed between the access and the handler
            # reading the PTE: the page is already here, no IO needed —
            # DiLOS' analogue of a minor fault.
            self._minor_faults.value += 1
            self.registry.add("fault.resolved_during_exception")
            if tracer.enabled:
                tracer.instant("fault.minor", "fault", clock.now,
                               {"vpn": vpn, "kind": "resolved"})
            return

        low = entry & _TAG_MASK
        if low == _USER:  # FETCHING
            self._wait_for_fetch(entry, vpn)
            return

        if not low:
            if entry:
                raise ValueError(f"malformed PTE {entry:#x}")
            self._first_touch(vpn, va)  # INVALID
            return

        # REMOTE or ACTION: a major fault.
        if low == _WRITE and self._swap_cache:
            frame = self._swap_cache.pop(vpn, None)
            if frame is not None:
                # Ablation path: the page already arrived but sits behind
                # the swap-cache indirection; pay a minor fault to map it.
                clock.advance(model.fastswap_minor_fault)
                self._map(vpn, frame)
                self._minor_faults.value += 1
                if tracer.enabled:
                    tracer.instant("fault.minor", "fault", clock.now,
                                   {"vpn": vpn, "kind": "swap_cache"})
                return
        self._major_fault(vpn, va, entry, fault_start)

    def _wait_for_fetch(self, entry: int, vpn: int) -> None:
        """Spin until a concurrent fetch of this page completes."""
        token = pte_mod.payload(entry)
        self._minor_faults.value += 1
        start = self.clock.now
        self.clock.advance(self.model.dilos_wait_fetch)
        ready = self._fetch_ready.get(token)
        if ready is not None:
            waited = max(0.0, ready - self.clock.now)
            self.minor_wait.record(waited)
            self.clock.advance_to(ready)
        # else: installed during our own advance; retry will hit LOCAL
        if self.tracer.enabled:
            self.tracer.complete("fault.minor_wait", "fault", start,
                                 self.clock.now - start, {"vpn": vpn})

    def _first_touch(self, vpn: int, va: int) -> None:
        """Zero-fill a never-materialized page of a mapped region."""
        region = self._as.region_for(va)  # raises InvalidAddressError
        frame, inline_us = self.page_manager.alloc_frame_for_fault()
        self.clock.advance(self.model.dilos_page_alloc + self.model.dilos_map)
        # Born dirty: the remote copy does not exist yet, and the eviction
        # invariant is "clean implies remote copy current".
        self._pt.set(vpn, pte_mod.make_local(frame, dirty=True,
                                             writable=region.writable))
        if region.ddc:
            self.page_manager.insert(vpn)
        self._first_touches.value += 1
        if inline_us:
            self.registry.add("fault.first_touch_inline_reclaims")
        if self.tracer.enabled:
            self.tracer.instant("fault.first_touch", "fault", self.clock.now,
                                {"vpn": vpn})

    def _major_fault(self, vpn: int, va: int, entry: int,
                     fault_start: float) -> None:
        clock = self.clock
        model = self.model
        self._major_faults.value += 1
        components = {
            "exception": model.fault_entry,
            "software": model.dilos_software,
        }

        frame, inline_us = self.page_manager.alloc_frame_for_fault()
        clock.advance(model.dilos_page_alloc)
        components["reclaim"] = inline_us

        token = self._issue_fetch(vpn, frame, entry, module="fault")
        issue_time = clock.now
        ready = self._fetch_ready.get(token)

        if ready is None:
            # Empty guided-paging vector: the page had no live bytes and is
            # rebuilt as zeros with no wire traffic at all.
            components["fetch"] = 0.0
        else:
            # The fetch window: run the guide or the default prefetcher and
            # the hit tracker while the 4 KiB page is on the wire.
            handled = False
            if self._prefetch_guide is not None:
                handled = self._prefetch_guide.on_fault(self._guide_ctx, va)
                if handled:
                    self.registry.add("guide.handled_faults")
            if not handled:
                self.hit_tracker.scan()
                self.prefetcher.on_major_fault(vpn, self._ops)
            ready = self._fetch_ready.get(token, ready)
            clock.advance_to(ready)
            components["fetch"] = clock.now - issue_time
            if self._pt.get(vpn) == (token << PAGE_SHIFT) | _USER:
                # The install never ran: the memory node died with the
                # READ in flight (its completion was marked failed). Roll
                # back so the fault can be retried or surfaced cleanly.
                self._roll_back(vpn, frame, token, entry)
                raise NodeFailedError(
                    f"fetch of vpn {vpn} lost: memory node failed in flight")

        clock.advance(model.dilos_map)
        self.breakdown.record_fault(components)
        if self.tracer.enabled:
            self.tracer.complete("fault.major", "fault", fault_start,
                                 clock.now - fault_start,
                                 {"vpn": vpn, "components": dict(components)})

    # -- fetch machinery ---------------------------------------------------------

    def _issue_fetch(self, vpn: int, frame: int, entry: int,
                     module: str) -> int:
        """Flip the PTE to FETCHING, post the READ and register its one
        landing event; returns the token."""
        token = self._next_token
        self._next_token = token + 1
        self._pt.set(vpn, (token << PAGE_SHIFT) | _USER)  # FETCHING
        remote_off = self._as.remote_offset_for(vpn)
        prefetch = module == "prefetch"
        into_cache = prefetch and self.config.swap_cache_mode
        qp = self._qps.get(module)
        if qp is None:
            qp = self._qps[module] = self.comm.qp(module)
        try:
            if entry & _TAG_MASK == _ACTION:
                vector = self.page_manager.action_vector(vpn)
                self.registry.add("guide.action_fetches")
                if not vector:
                    self._install(vpn, frame, token, None, into_cache)
                    return token
                completion = qp.post_read_sg(
                    [(remote_off + off, length) for off, length in vector])
            else:
                vector = None
                completion = qp.post_read(remote_off, PAGE_SIZE)
        except NodeFailedError:
            # The memory node died mid-fetch: roll the PTE back and free
            # the frame so the fault can be retried (or surfaced) cleanly.
            self._roll_back(vpn, frame, token, entry)
            raise
        ready = completion.time
        self._fetch_ready[token] = ready
        self.clock.call_at(ready, partial(
            self._land, vpn, frame, entry, token, completion, vector,
            into_cache, prefetch))
        return token

    def _roll_back(self, vpn: int, frame: int, token: int,
                   entry: int) -> None:
        """Undo a fetch the memory node lost: restore the PTE, free the
        frame, forget the token."""
        self._pt.set(vpn, entry)
        self._frames.free(frame)
        self._fetch_ready.pop(token, None)
        self.registry.add("net.fetch_node_failures")

    def _land(self, vpn: int, frame: int, entry: int, token: int,
              completion: Completion, vector: Optional[List],
              into_cache: bool, prefetch: bool) -> None:
        """A fetch's landing event, at its completion time: install the
        page (or roll back a prefetch the memory node lost), then note a
        prefetch for the hit tracker.

        The install and the note must run back to back with no other
        timer between them; one event guarantees it (the firing-order
        argument is in docs/PERFORMANCE.md, "Fault-path fast lane").
        """
        if not completion.failed:
            if vector is None:
                self._install(vpn, frame, token, completion.data, into_cache)
            else:
                self._install_sg(vpn, frame, token, vector, completion,
                                 into_cache)
        elif prefetch:
            # The memory node died with this READ in flight. A demand
            # fetch is rolled back by its waiting fault handler; nobody
            # waits on a prefetch, so roll it back here.
            if self._pt.get(vpn) == (token << PAGE_SHIFT) | _USER:
                self._roll_back(vpn, frame, token, entry)
            else:
                self._drop_fetch(frame, token)
        if prefetch:
            self.hit_tracker.note_installed(vpn)

    def _install_sg(self, vpn: int, frame: int, token: int,
                    vector: List, completion: Completion,
                    into_cache: bool) -> None:
        """Scatter a guided fetch's segments into a zeroed frame."""
        data = self._frames.data(frame)
        cursor = 0
        payload = completion.data
        for off, length in vector:
            data[off:off + length] = payload[cursor:cursor + length]
            cursor += length
        self._install(vpn, frame, token, None, into_cache)

    def _install(self, vpn: int, frame: int, token: int,
                 data: Optional[bytes], into_cache: bool) -> None:
        """Map a fetched page (or park it in the ablation swap cache)."""
        if self._pt.get(vpn) != (token << PAGE_SHIFT) | _USER:  # FETCHING
            # The mapping vanished mid-flight (munmap); drop the page.
            self._drop_fetch(frame, token)
            return
        if data is not None:
            self._frames.data(frame)[:] = data
        self._fetch_ready.pop(token, None)
        if into_cache:
            self._pt.set(vpn, pte_mod.make_remote(self._as.remote_pfn_for(vpn)))
            self._swap_cache[vpn] = frame
            self.registry.add("swapcache.installs")
            return
        self._map(vpn, frame)

    def _drop_fetch(self, frame: int, token: int) -> None:
        """Discard a fetch whose page was unmapped while it flew."""
        self._frames.free(frame)
        self._fetch_ready.pop(token, None)
        self.registry.add("net.fetches_dropped")

    def _map(self, vpn: int, frame: int) -> None:
        """Map a clean LOCAL PTE for ``frame`` and enter it in the LRU."""
        entry = (frame << PAGE_SHIFT) | _PRESENT | _USER
        if self._as.region_for(vpn << PAGE_SHIFT).writable:
            entry |= _WRITE
        self._pt.set(vpn, entry)
        self.page_manager.insert(vpn)

    # -- prefetch (§4.3) -----------------------------------------------------------

    def prefetch_vpn(self, vpn: int) -> bool:
        """Async prefetch of ``vpn`` on the prefetch QP; False if skipped."""
        entry = self._pt.get(vpn)
        low = entry & _TAG_MASK
        if low != _WRITE and low != _ACTION:  # only REMOTE or ACTION
            return False
        frame = self.page_manager.alloc_frame_for_prefetch()
        if frame is None:
            return False
        try:
            self._issue_fetch(vpn, frame, entry, module="prefetch")
        except NodeFailedError:
            # A dead node must not take down speculative work.
            return False
        self._prefetches.value += 1
        if self.tracer.enabled:
            self.tracer.instant("prefetch.issue", "prefetch", self.clock.now,
                                {"vpn": vpn})
        return True

    # -- guide support (§4.3/§4.4) ----------------------------------------------------

    def guide_subpage_fetch(self, va: int, size: int,
                            callback: Callable[[bytes], None]) -> bool:
        """Fetch ``size`` bytes at ``va`` on the guide QP (subpaging)."""
        if size <= 0:
            raise ValueError("subpage size must be positive")
        first_vpn = va >> PAGE_SHIFT
        entry = self._pt.get(first_vpn)
        tag = pte_mod.classify(entry)
        if tag is Tag.LOCAL:
            data = self.peek_local(va, size)
            if data is not None:
                callback(data)
                return True
            return False
        if tag is Tag.INVALID:
            return False
        # Build per-page segments (remote slots are not VA-contiguous).
        segments = []
        cursor = va
        remaining = size
        while remaining > 0:
            vpn = cursor >> PAGE_SHIFT
            if not self._as.has_remote_backing(vpn):
                return False
            offset = cursor & (PAGE_SIZE - 1)
            length = min(PAGE_SIZE - offset, remaining)
            segments.append((self._as.remote_offset_for(vpn) + offset, length))
            cursor += length
            remaining -= length
        qp = self.comm.qp("guide")
        if len(segments) == 1:
            qp.post_read(segments[0][0], segments[0][1],
                         on_complete=lambda c: callback(c.data))
        else:
            qp.post_read_sg(segments, on_complete=lambda c: callback(c.data))
        self.registry.add("guide.subpage_fetches")
        return True

    def peek_local(self, va: int, size: int) -> Optional[bytes]:
        """Read resident bytes without faulting; None if any page is out."""
        parts = []
        cursor = va
        remaining = size
        while remaining > 0:
            vpn = cursor >> PAGE_SHIFT
            entry = self._pt.get(vpn)
            if not pte_mod.is_present(entry):
                return None
            offset = cursor & (PAGE_SIZE - 1)
            length = min(PAGE_SIZE - offset, remaining)
            frame = pte_mod.frame_of(entry)
            parts.append(bytes(self._frames.data(frame)[offset:offset + length]))
            cursor += length
            remaining -= length
        return b"".join(parts)

    # -- teardown -----------------------------------------------------------------

    def release_region(self, region: Region) -> None:
        """Free every page of a region (munmap)."""
        first = region.base >> PAGE_SHIFT
        last = (region.end - 1) >> PAGE_SHIFT
        for vpn in range(first, last + 1):
            entry = self._pt.get(vpn)
            tag = pte_mod.classify(entry)
            if tag is Tag.LOCAL:
                self._frames.free(pte_mod.frame_of(entry))
            elif tag is Tag.FETCHING:
                # The in-flight install will see a cleared PTE and drop it.
                pass
            cached = self._swap_cache.pop(vpn, None)
            if cached is not None:
                self._frames.free(cached)
            self._pt.set(vpn, 0)
            self._vm.tlb.invalidate(vpn)
            self.page_manager.drop(vpn)
            self._as.release_remote(vpn)


class DilosSystem(BaseSystem):
    """A booted DiLOS computing node attached to a memory backend."""

    config: DilosConfig

    def __init__(self, config: Optional[DilosConfig] = None,
                 memory_backend: BackendSpec = None,
                 obs: Optional[Observability] = None,
                 clock: Optional[Clock] = None) -> None:
        """Boot a DiLOS node; the arguments are
        :class:`~repro.core.api.BaseSystem`'s."""
        super().__init__(config or DilosConfig(), memory_backend, obs, clock)
        self.kernel = DilosKernel(self.clock, self.config, self.addr_space,
                                  self.frames, self.vm, self.node,
                                  obs=self.obs)
        registry = self.obs.registry
        registry.gauge("net.bytes_read",
                       lambda: self.kernel.comm.stats.bytes_read)
        registry.gauge("net.bytes_written",
                       lambda: self.kernel.comm.stats.bytes_written)
        registry.gauge("prefetch.hit_ratio",
                       lambda: self.kernel.hit_tracker.hit_ratio())
        registry.gauge("reclaim.resident_pages",
                       lambda: self.kernel.page_manager.resident_pages)

    @property
    def name(self) -> str:
        if self.config.tcp_emulation:
            return "DiLOS-TCP"
        return f"DiLOS with {self.config.prefetcher}-prefetch"

    @property
    def sync_overhead_us(self) -> float:
        return self.model.sync_overhead_osv
