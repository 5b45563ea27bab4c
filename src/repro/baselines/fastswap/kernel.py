"""The Fastswap kernel model: Linux swap subsystem + frontswap over RDMA.

Faithfully reproduces the *structure* the paper measures in §3:

* a major fault walks the full swap path — swap-entry decode, swap-cache
  allocation and radix insertion, buddy page allocation, rmap/map — before
  and after its RDMA fetch (Figure 1's software components);
* swap readahead fetches a cluster of 8 pages *into the swap cache*,
  unmapped, so 7 of every 8 sequential accesses become minor faults
  (Table 1's 12.5%/87.5% split is emergent, not hard-coded);
* readahead IO shares the fault path's queue pair — prefetch reads queue
  behind and ahead of demand reads (head-of-line blocking);
* reclamation runs at fault time (direct reclaim) with a dedicated
  offload core absorbing only part of the work (§3.1), plus a weak kswapd;
  dirty evictions pay their RDMA write-back on the critical path.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.common.clock import Clock
from repro.common.units import PAGE_SHIFT, PAGE_SIZE
from repro.baselines.fastswap.config import FastswapConfig
from repro.baselines.fastswap.swap_cache import SwapCache
from repro.core.api import BaseSystem
from repro.mem import pte as pte_mod
from repro.mem.addrspace import AddressSpace, Region
from repro.mem.frames import FramePool
from repro.mem.remote import MemoryNode, NodeFailedError
from repro.mem.vm import VirtualMemory
from repro.net.qp import NetStats, QueuePair
from repro.net.reliable import ReliableQP
from repro.obs import MetricsSnapshot, Observability

Tag = pte_mod.Tag


class FastswapKernel:
    """Page fault handling through the modeled Linux swap subsystem."""

    def __init__(
        self,
        clock: Clock,
        config: FastswapConfig,
        addr_space: AddressSpace,
        frames: FramePool,
        vm: VirtualMemory,
        node: MemoryNode,
        obs: Optional[Observability] = None,
    ) -> None:
        config.validate()
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
        for key in ("fault.major", "fault.minor", "fault.first_touch",
                    "prefetch.issued", "reclaim.direct",
                    "reclaim.pages_evicted", "reclaim.pages_cleaned"):
            self.registry.counter(key)
        self.breakdown = self.registry.breakdown("fault.breakdown")
        self.minor_wait = self.registry.histogram("fault.minor_wait_us")
        self.stats = NetStats()
        #: Faults, readahead, and frontswap stores all share one swap IO
        #: queue — demand fetches queue behind readahead and write-backs
        #: (the head-of-line blocking DiLOS' comm module avoids, §4.5).
        plan = config.net_faults  # typed Optional[FaultPlan], parsed once
        fabric = config.fabric  # rack attachment; None = flat wire
        if plan is None:
            self.swap_qp = QueuePair("swap", clock, self.model, node,
                                     self.stats, tracer=self.tracer,
                                     fabric=fabric)
        else:
            self.swap_qp = ReliableQP(
                "swap", clock, self.model, node,
                qps=[QueuePair("swap", clock, self.model, node, self.stats,
                               tracer=self.tracer, fabric=fabric),
                     QueuePair("swap.alt", clock, self.model, node,
                               self.stats, tracer=self.tracer,
                               fabric=fabric)],
                plan=plan, policy=config.net_retry,
                registry=self.registry, tracer=self.tracer)
        self.swap_cache = SwapCache()
        self._lru: "OrderedDict[int, None]" = OrderedDict()
        total = frames.total_frames
        # Same small-pool cap as DiLOS' page manager: reserve at most a
        # quarter of local memory for the free-frame cushion.
        self.min_watermark = max(4, int(total * config.min_watermark_frac))
        self.high_watermark = min(
            max(self.min_watermark + 4, int(total * config.high_watermark_frac),
                min(24, total // 8)),
            max(self.min_watermark + 4, total // 4))
        vm.attach_kernel(self.handle_fault)
        clock.call_after(config.kswapd_period_us, self._kswapd_tick)

    # -- fault handling ------------------------------------------------------

    def handle_fault(self, va: int, is_write: bool) -> None:
        model = self.model
        vpn = va >> PAGE_SHIFT
        fault_start = self.clock.now
        # The swap-entry lookup charge stays separate below: a kswapd timer
        # due between exception entry and the PTE read must fire first.
        self.clock.advance(model.fault_entry)
        entry = self._pt.get(vpn)
        tag = pte_mod.classify(entry)

        if tag is Tag.LOCAL:
            self.registry.add("fault.spurious")
            return
        if tag is Tag.INVALID:
            self._first_touch(vpn, va)
            return
        if tag is not Tag.REMOTE:
            raise AssertionError(f"unexpected PTE tag {tag} in Fastswap")

        self.clock.advance(model.fastswap_swap_lookup)
        cached = self.swap_cache.lookup(vpn)
        if cached is not None:
            self._minor_fault(vpn, cached)
        else:
            self._major_fault(vpn, fault_start)

    def _first_touch(self, vpn: int, va: int) -> None:
        region = self._as.region_for(va)
        self._maybe_direct_reclaim()
        frame = self._frames.alloc()
        self.clock.advance(self.model.fastswap_page_alloc
                           + self.model.fastswap_map)
        self._pt.set(vpn, pte_mod.make_local(frame, dirty=True,
                                             writable=region.writable))
        if region.ddc:
            self._lru[vpn] = None
        self.registry.add("fault.first_touch")
        if self.tracer.enabled:
            self.tracer.instant("fault.first_touch", "fault", self.clock.now,
                                {"vpn": vpn})

    def _minor_fault(self, vpn: int, cached) -> None:
        """Map a page already sitting in the swap cache."""
        frame, ready = cached
        self.registry.add("fault.minor")
        if self.tracer.enabled:
            self.tracer.instant("fault.minor", "fault", self.clock.now,
                                {"vpn": vpn, "kind": "swap_cache"})
        # Take the page reference first (lock_page pins it) so concurrent
        # reclaim cannot drop the entry while we wait out its IO.
        self.swap_cache.remove(vpn)
        self.clock.advance(self.model.fastswap_minor_fault)
        waited = max(0.0, ready - self.clock.now)
        if waited:
            # lock_page(): the readahead IO is still in flight.
            self.minor_wait.record(waited)
            self.clock.advance_to(ready)
        writable = self._as.region_for(vpn << PAGE_SHIFT).writable
        self._pt.set(vpn, pte_mod.make_local(frame, dirty=False,
                                             writable=writable))
        self._lru[vpn] = None

    def _major_fault(self, vpn: int, fault_start: float) -> None:
        model = self.model
        self.registry.add("fault.major")
        components = {"exception": model.fault_entry}

        reclaim_us = self._maybe_direct_reclaim()
        components["reclaim"] = reclaim_us

        components["software"] = model.fastswap_software
        self.clock.advance(model.fastswap_major_prepare)
        frame = self._frames.alloc()

        issue_time = self.clock.now
        try:
            completion = self.swap_qp.post_read(
                self._as.remote_offset_for(vpn), PAGE_SIZE)
        except NodeFailedError:
            self._frames.free(frame)
            self.registry.add("net.fetch_node_failures")
            raise
        self._readahead(vpn)
        try:
            self.swap_qp.wait(completion)
        except NodeFailedError:
            # The node died with our READ in flight: the response is lost.
            self._frames.free(frame)
            self.registry.add("net.fetch_node_failures")
            raise
        components["fetch"] = self.clock.now - issue_time

        self._frames.data(frame)[:] = completion.data
        self.clock.advance(model.fastswap_map)
        writable = self._as.region_for(vpn << PAGE_SHIFT).writable
        self._pt.set(vpn, pte_mod.make_local(frame, dirty=False,
                                             writable=writable))
        self._lru[vpn] = None
        self.breakdown.record_fault(components)
        if self.tracer.enabled:
            self.tracer.complete("fault.major", "fault", fault_start,
                                 self.clock.now - fault_start,
                                 {"vpn": vpn, "components": dict(components)})

    # -- swap readahead ---------------------------------------------------------

    def _readahead(self, fault_vpn: int) -> None:
        """Fetch the rest of the cluster into the swap cache, unmapped."""
        for offset in range(1, self.config.readahead_window):
            vpn = fault_vpn + offset
            entry = self._pt.get(vpn)
            if pte_mod.classify(entry) is not Tag.REMOTE:
                continue
            if self.swap_cache.contains(vpn):
                continue
            if self._frames.free_frames <= self.min_watermark:
                self.registry.add("prefetch.skipped_no_frames")
                break
            frame = self._frames.alloc()
            try:
                completion = self.swap_qp.post_read(
                    self._as.remote_offset_for(vpn), PAGE_SIZE)
            except NodeFailedError:
                self._frames.free(frame)
                break
            # Data lands in the frame when the IO completes; contents are
            # immutable remotely while unmapped, so snapshot now.
            self._frames.data(frame)[:] = completion.data
            self.swap_cache.insert(vpn, frame, completion.time)
            self.registry.add("prefetch.issued")
            if self.tracer.enabled:
                self.tracer.instant("prefetch.issue", "prefetch",
                                    self.clock.now, {"vpn": vpn})

    # -- reclamation ----------------------------------------------------------------

    def _maybe_direct_reclaim(self) -> float:
        """Direct reclaim when free frames dip below the min watermark.

        Returns the microseconds charged inline (a fraction is absorbed by
        Fastswap's dedicated reclaim core).
        """
        if self._frames.free_frames > self.min_watermark:
            return 0.0
        target = min(self.config.reclaim_batch,
                     self.high_watermark - self._frames.free_frames)
        start = self.clock.now
        inline_us = self._reclaim_pages(
            target, offload=self.model.fastswap_reclaim_offload_fraction)
        self.registry.add("reclaim.direct")
        self.clock.advance(inline_us)
        if self.tracer.enabled:
            self.tracer.complete("reclaim.direct", "reclaim", start,
                                 self.clock.now - start,
                                 {"inline_us": inline_us})
        return inline_us

    def _reclaim_pages(self, target: int, offload: float,
                       allow_writeback: bool = True) -> float:
        """Evict up to ``target`` pages; returns inline CPU microseconds.

        ``allow_writeback=False`` models kswapd's writeback aversion (dirty
        throttling): background reclaim skips dirty pages, so under
        write-heavy load eviction falls back to direct reclaim, which pays
        the frontswap store synchronously on the fault path — the reason
        Fastswap's sequential-write throughput is half its read throughput
        (Table 2).
        """
        model = self.model
        cpu_us = 0.0
        wire_us = 0.0  # synchronous store waits; the offload core cannot
        # absorb wire time the faulting thread must wait out.
        evicted = 0
        # Clean swap-cache pages first: free wins.
        while evicted < target:
            dropped = self.swap_cache.pop_any_ready(self.clock.now)
            if dropped is None:
                break
            _vpn, frame = dropped
            self._frames.free(frame)
            cpu_us += model.fastswap_reclaim_per_page * 0.5
            evicted += 1
            self.registry.add("swapcache.reclaimed")
        # Then the LRU, paying write-backs for dirty pages.
        rotations = 0
        max_rotations = 2 * len(self._lru) + 1
        while evicted < target and self._lru and rotations < max_rotations:
            rotations += 1
            vpn, _ = self._lru.popitem(last=False)
            entry = self._pt.get(vpn)
            if not pte_mod.is_present(entry):
                continue
            cpu_us += model.fastswap_reclaim_per_page * self.config.scan_per_evict
            if pte_mod.is_accessed(entry):
                self._pt.set(vpn, pte_mod.clear_accessed(entry))
                self._vm.tlb.invalidate(vpn)
                self._lru[vpn] = None
                continue
            frame = pte_mod.frame_of(entry)
            if pte_mod.is_dirty(entry) and not allow_writeback:
                self._lru[vpn] = None  # kswapd defers dirty pages
                continue
            if pte_mod.is_dirty(entry):
                try:
                    completion = self.swap_qp.post_write(
                        self._as.remote_offset_for(vpn),
                        bytes(self._frames.data(frame)))
                except NodeFailedError:
                    # Cannot write back: keep the page resident.
                    self.registry.add("net.writeback_node_failures")
                    self._lru[vpn] = None
                    continue
                # frontswap stores are synchronous: wait out the write.
                wire_us += max(0.0, completion.time - self.clock.now)
                self.registry.add("reclaim.pages_cleaned")
            self._pt.set(vpn, pte_mod.make_remote(self._as.remote_pfn_for(vpn)))
            self._vm.tlb.invalidate(vpn)
            self._frames.free(frame)
            evicted += 1
            self.registry.add("reclaim.pages_evicted")
        return cpu_us * (1.0 - offload) + wire_us

    def _kswapd_tick(self) -> None:
        """Background reclaim toward the high watermark (free of charge —
        kswapd runs on another core)."""
        deficit = self.high_watermark - self._frames.free_frames
        if deficit > 0:
            start = self.clock.now
            self._reclaim_pages(min(deficit, self.config.kswapd_batch),
                                offload=1.0, allow_writeback=False)
            self.registry.add("reclaim.kswapd_runs")
            if self.tracer.enabled:
                self.tracer.complete("reclaim.kswapd", "reclaim", start,
                                     self.clock.now - start,
                                     {"deficit": deficit})
        self.clock.call_after(self.config.kswapd_period_us, self._kswapd_tick)

    # -- teardown ---------------------------------------------------------------------

    def release_region(self, region: Region) -> None:
        first = region.base >> PAGE_SHIFT
        last = (region.end - 1) >> PAGE_SHIFT
        for vpn in range(first, last + 1):
            entry = self._pt.get(vpn)
            if pte_mod.is_present(entry):
                self._frames.free(pte_mod.frame_of(entry))
            if self.swap_cache.contains(vpn):
                frame, _ready = self.swap_cache.remove(vpn)
                self._frames.free(frame)
            self._pt.set(vpn, 0)
            self._vm.tlb.invalidate(vpn)
            self._lru.pop(vpn, None)
            self._as.release_remote(vpn)


class FastswapSystem(BaseSystem):
    """A booted Fastswap computing node attached to a fresh memory node."""

    def __init__(self, config: Optional[FastswapConfig] = None,
                 memory_backend=None,
                 obs: Optional[Observability] = None,
                 clock: Optional[Clock] = None) -> None:
        """Boot a node; ``memory_backend`` overrides the default single
        memory node (e.g. a cluster from :mod:`repro.mem.cluster`);
        ``clock`` injects a shared timeline so independently booted
        systems can be co-scheduled; ``obs`` injects a shared registry
        or an enabled tracer."""
        self.config = config or FastswapConfig()
        self.config.validate()
        self.clock = clock or Clock()
        self.model = self.config.latency
        self.node = memory_backend or MemoryNode(self.config.remote_mem_bytes)
        self.frames = FramePool(self.config.local_mem_bytes // PAGE_SIZE)
        self.addr_space = AddressSpace(self.node)
        self.vm = VirtualMemory(self.clock, self.addr_space.page_table,
                                self.frames, self.model.cpu_copy_per_byte)
        self.obs = obs or Observability.default()
        self.kernel = FastswapKernel(self.clock, self.config, self.addr_space,
                                     self.frames, self.vm, self.node,
                                     obs=self.obs)
        registry = self.obs.registry
        registry.gauge("net.bytes_read", lambda: self.kernel.stats.bytes_read)
        registry.gauge("net.bytes_written",
                       lambda: self.kernel.stats.bytes_written)
        registry.gauge("tlb.hits", lambda: self.vm.tlb.hits)
        registry.gauge("tlb.misses", lambda: self.vm.tlb.misses)
        registry.gauge("swapcache.size", lambda: len(self.kernel.swap_cache))

    @property
    def name(self) -> str:
        return "Fastswap"

    def munmap(self, region: Region) -> None:
        self.kernel.release_region(region)
        self.addr_space.munmap(region)

    def metrics(self) -> MetricsSnapshot:
        return self.obs.registry.snapshot(self.name, self.clock.now)
