"""DiLOS' page manager (§4.4): allocator, cleaner, reclaimer.

The design goal is that the fault path *never* pays for reclamation (the
29% Fastswap spends in Figure 1). The manager keeps a reserve of free
frames between two watermarks; a background thread (modeled as a periodic
clock timer running on a spare core, so it charges no application CPU)
rotates a clock hand over the LRU list:

* accessed pages get their accessed bit cleared (second chance);
* dirty pages are *cleaned* — written back asynchronously on the manager's
  own QP, optionally as a scatter-gather vector of live ranges when an
  allocator guide is installed (guided paging);
* clean, cold pages are evicted: PTE flips to REMOTE (or ACTION carrying
  the live-range vector) and the frame returns to the free list.

Invariant: a present PTE with a clear dirty bit implies the remote copy is
current (zero-filled pages are therefore born dirty). Eviction only ever
takes clean pages, so it never loses data.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import Any, Dict, List, Optional, Tuple

from repro.common.clock import Clock
from repro.common.errors import OutOfMemoryError
from repro.common.units import PAGE_SHIFT, PAGE_SIZE
from repro.core.comm import CommModule
from repro.core.config import DilosConfig
from repro.core.guides import AllocatorGuide, coalesce_ranges
from repro.mem import pte as pte_mod
from repro.mem.addrspace import AddressSpace
from repro.mem.frames import FramePool
from repro.mem.page_table import PageTable
from repro.mem.remote import NodeFailedError
from repro.mem.tlb import Tlb
from repro.obs import Counter, Observability

Range = Tuple[int, int]

# PTE bits tested directly on the reclaim path (see repro.mem.pte).
_PRESENT = pte_mod.PTE_PRESENT
_ACCESSED = pte_mod.PTE_ACCESSED
_DIRTY = pte_mod.PTE_DIRTY

#: Cap on scatter-gather vector length (§6.3: longer vectors slow sharply).
MAX_SG_SEGMENTS = 3


class PageManager:
    """Free-list allocator with watermark-driven background reclamation."""

    def __init__(
        self,
        clock: Clock,
        config: DilosConfig,
        page_table: PageTable,
        frames: FramePool,
        addr_space: AddressSpace,
        tlb: Tlb,
        comm: CommModule,
        obs: Observability,
    ) -> None:
        self._clock = clock
        self._config = config
        self._model = config.latency
        self._pt = page_table
        self._frames = frames
        self._as = addr_space
        self._tlb = tlb
        self._comm = comm
        self._registry = obs.registry
        self._tracer = obs.tracer
        # Per-page counters, bound once; the kernel registers both at boot.
        self._evicted = obs.registry.counter("reclaim.pages_evicted")
        self._cleaned = obs.registry.counter("reclaim.pages_cleaned")
        # Bound on first bump, not here: a snapshot of a kernel that
        # never bumps it carries no row for it.
        self._cleaned_full: Optional[Counter] = None
        #: The manager module's QP, bound on the first write-back (the
        #: communication module creates QPs in first-use order).
        self._qp: Optional[Any] = None
        total = frames.total_frames
        # Watermarks scale with the pool but never reserve more than a
        # quarter of it — a tiny cache must still mostly hold pages.
        self.low_watermark = max(4, int(total * config.low_watermark_frac))
        self.high_watermark = min(
            max(self.low_watermark + 4, int(total * config.high_watermark_frac),
                min(40, total // 8)),
            max(self.low_watermark + 4, total // 4))
        self._lru: "OrderedDict[int, None]" = OrderedDict()
        self._allocator_guide: Optional[AllocatorGuide] = None
        #: vpn -> live-range vector recorded at the page's last cleaning;
        #: None means the full page was written back.
        self._clean_vectors: Dict[int, Optional[List[Range]]] = {}
        self._timer_armed = False
        #: Pure-rotation ticks elided by :meth:`_tick`; replayed exactly
        #: (as one cyclic shift) before the next real LRU access.
        self._deferred_ticks = 0
        #: Page-table unmap epoch as of the last moment the LRU provably
        #: held no stale (unmapped) entries.
        self._unmaps_seen = page_table.unmap_epoch

    # -- configuration -------------------------------------------------------

    def set_allocator_guide(self, guide: Optional[AllocatorGuide]) -> None:
        self._allocator_guide = guide

    def start(self) -> None:
        """Arm the background thread's periodic wakeup."""
        if not self._timer_armed and not self._config.direct_reclaim_only:
            self._timer_armed = True
            self._clock.call_after(self._config.cleaner_period_us, self._tick)

    # -- allocation -----------------------------------------------------------

    def alloc_frame_for_fault(self) -> Tuple[int, float]:
        """A frame for the fault path; returns ``(frame, inline_reclaim_us)``.

        ``inline_reclaim_us`` is nonzero only when eager background
        reclamation fell behind (or the ``direct_reclaim_only`` ablation is
        on) and the handler had to reclaim synchronously — the cost DiLOS'
        design exists to avoid.
        """
        inline_us = 0.0
        if self._config.direct_reclaim_only:
            if self._frames.free_frames <= self.low_watermark:
                inline_us += self._direct_reclaim(
                    self.high_watermark - self._frames.free_frames)
        elif self._frames.free_frames == 0:
            inline_us += self._direct_reclaim(self.low_watermark)
        if self._frames.free_frames == 0:
            raise OutOfMemoryError("no reclaimable local pages")
        return self._frames.alloc(), inline_us

    def alloc_frame_for_prefetch(self) -> Optional[int]:
        """A frame for prefetch; never dips into the fault-path reserve."""
        if self._frames.free_frames <= self.low_watermark:
            self._registry.add("prefetch.skipped_no_frames")
            return None
        return self._frames.alloc()

    def insert(self, vpn: int) -> None:
        """Register a newly mapped page with the LRU clock."""
        if self._deferred_ticks:
            self._replay_rotation()
        self._lru[vpn] = None
        self._lru.move_to_end(vpn)

    def drop(self, vpn: int) -> None:
        """Forget a page (munmap/free); caller handles PTE and frame."""
        if self._deferred_ticks:
            self._replay_rotation()
        self._lru.pop(vpn, None)
        self._clean_vectors.pop(vpn, None)
        # The unmap that motivated this drop (if any) left no stale LRU
        # entry — the line above removed it. Every kernel unmap path pairs
        # its PTE clear with a drop()/evict, so the LRU is stale-free again.
        self._unmaps_seen = self._pt.unmap_epoch

    @property
    def resident_pages(self) -> int:
        return len(self._lru)

    # -- guided paging accessors ------------------------------------------------

    def action_vector(self, vpn: int) -> List[Range]:
        """The live-range vector recorded for an ACTION-evicted page."""
        vector = self._clean_vectors.get(vpn)
        if vector is None:
            raise ValueError(f"page {vpn:#x} has no recorded action vector")
        return vector

    # -- background thread -------------------------------------------------------

    def _tick(self) -> None:
        pt = self._pt
        clock = self._clock
        if (not pt.dirty_vpns and pt.unmap_epoch == self._unmaps_seen
                and self._frames.free_frames >= self.high_watermark):
            # Provably a no-op pass: no PTE anywhere is dirty (nothing to
            # clean), no unmap since the LRU was last stale-free (nothing
            # to drop), and the free list sits at the high watermark (no
            # reclaim deficit). Such a pass reduces to a cyclic shift of
            # the LRU by the scan budget — defer it and replay the
            # accumulated shift lazily before the next real LRU access.
            self._deferred_ticks += 1
            clock.call_at(clock.now + self._config.cleaner_period_us,
                          self._tick)
            return
        if self._deferred_ticks:
            self._replay_rotation()
        self.cleaner_pass(self._config.clean_batch)
        deficit = self.high_watermark - self._frames.free_frames
        if deficit > 0:
            self.reclaimer_pass(min(deficit, self._config.reclaim_batch))
        clock.call_at(clock.now + self._config.cleaner_period_us, self._tick)

    def _replay_rotation(self) -> None:
        """Apply the deferred pure-rotation ticks as one cyclic shift.

        Exact replay: between deferral and replay no operation observed or
        mutated the LRU (every mutator replays first), so ``t`` deferred
        passes of budget ``b`` equal one left-rotation by ``(min(b, n) *
        t) % n`` — each pass pops the front ``min(b, n)`` entries and
        re-appends them in order, with no PTE reads or side effects
        because nothing was dirty, stale, or reclaimable.
        """
        ticks, self._deferred_ticks = self._deferred_ticks, 0
        lru = self._lru
        n = len(lru)
        if not ticks or n == 0:
            return
        self._shift((min(self._config.clean_batch, n) * ticks) % n)

    def _shift(self, shift: int) -> None:
        """Rotate the LRU left by ``shift`` entries in O(min(s, n-s))."""
        lru = self._lru
        n = len(lru)
        if shift == 0:
            return
        if shift <= n - shift:
            pop = lru.popitem
            for _ in range(shift):
                vpn, _ = pop(last=False)
                lru[vpn] = None
        else:
            # Rotating left by shift == rotating right by n - shift: move
            # the tail block to the front, last entry first.
            move = lru.move_to_end
            for vpn in list(islice(reversed(lru), n - shift)):
                move(vpn, last=False)

    def cleaner_pass(self, budget: int) -> int:
        """Write back up to ``budget`` dirty pages; returns pages cleaned."""
        if self._deferred_ticks:
            self._replay_rotation()
        pt = self._pt
        lru = self._lru
        n = len(lru)
        if pt.unmap_epoch == self._unmaps_seen and n:
            # No stale LRU entries, so the pass visits exactly the first
            # min(budget, n) entries: each is rotated to the back and, if
            # dirty, cleaned (the cleaner never touches accessed bits).
            # The dirty-set membership test replaces a PTE read —
            # no side effects either way — and the per-entry interleaving
            # of rotation and cleaning is preserved exactly, so any timer
            # fired by a clean's inline post overhead observes the same
            # LRU state as under the generic rotation below.
            if not pt.dirty_vpns:
                self._shift(min(budget, n) % n)
                return 0
            window = list(islice(lru, min(budget, n)))
            start = self._clock.now
            cleaned = 0
            dirty = pt.dirty_vpns
            move = lru.move_to_end
            for vpn in window:
                move(vpn)
                if vpn in dirty:
                    self._clean(vpn, self._pt.get(vpn))
                    cleaned += 1
            if cleaned and self._tracer.enabled:
                self._tracer.complete("reclaim.cleaner_pass", "reclaim",
                                      start, self._clock.now - start,
                                      {"cleaned": cleaned})
            return cleaned
        start = self._clock.now
        cleaned = 0
        for vpn in self._rotate(budget):
            entry = self._pt.get(vpn)
            if entry & _DIRTY:
                self._clean(vpn, entry)
                cleaned += 1
        if cleaned and self._tracer.enabled:
            self._tracer.complete("reclaim.cleaner_pass", "reclaim", start,
                                  self._clock.now - start,
                                  {"cleaned": cleaned})
        return cleaned

    def reclaimer_pass(self, target: int) -> int:
        """Evict up to ``target`` cold clean pages; returns pages evicted.

        One sweep of the clock hand over at most the whole LRU: stale
        entries are dropped, accessed pages get a second chance (bit
        cleared, moved to the back), and cold pages are cleaned if dirty
        and evicted.
        """
        if self._deferred_ticks:
            self._replay_rotation()
        start = self._clock.now
        evicted = 0
        lru = self._lru
        pop = lru.popitem
        pt = self._pt
        get = pt.get
        # The scan budget is fixed at the start; cleans may fire timers
        # that map pages (and so grow the LRU) mid-pass.
        for _ in range(len(lru)):
            if not lru:
                break
            vpn, _ = pop(last=False)
            entry = get(vpn)
            if not entry & _PRESENT:
                self._clean_vectors.pop(vpn, None)
                continue
            lru[vpn] = None  # to the back: second chance or eviction
            if entry & _ACCESSED:
                pt.set(vpn, entry & ~_ACCESSED)
                self._tlb.invalidate(vpn)
                continue
            if evicted >= target:
                break
            if entry & _DIRTY:
                self._clean(vpn, entry)
                entry = get(vpn)
                if entry & _DIRTY:
                    continue  # write-back failed (node down); not evictable
            self._evict(vpn, entry)
            evicted += 1
        if evicted and self._tracer.enabled:
            self._tracer.complete("reclaim.reclaimer_pass", "reclaim", start,
                                  self._clock.now - start,
                                  {"evicted": evicted})
        return evicted

    def _rotate(self, budget: int):
        """Advance the clock hand; yields candidate VPNs.

        Each candidate goes to the back of the list before it is yielded.
        Stale entries (already unmapped) are dropped silently.
        """
        for _ in range(min(budget, len(self._lru))):
            if not self._lru:
                return
            vpn, _ = self._lru.popitem(last=False)
            if not self._pt.get(vpn) & _PRESENT:
                self._clean_vectors.pop(vpn, None)
                continue
            self._lru[vpn] = None  # keep position until caller evicts
            yield vpn

    # -- clean & evict ----------------------------------------------------------

    def _clean(self, vpn: int, entry: int) -> None:
        """Write a dirty page's (live) bytes back to the memory node."""
        data = self._frames.data(entry >> PAGE_SHIFT)
        remote_off = self._as.remote_offset_for(vpn)
        qp = self._qp
        if qp is None:
            qp = self._qp = self._comm.qp("manager")
        vector: Optional[List[Range]] = None
        if self._config.guided_paging and self._allocator_guide is not None:
            ranges = self._allocator_guide.live_ranges(vpn)
            if ranges is not None:
                vector = coalesce_ranges(ranges, MAX_SG_SEGMENTS, PAGE_SIZE)
        try:
            if vector is None:
                qp.post_write(remote_off, bytes(data))
                cleaned_full = self._cleaned_full
                if cleaned_full is None:
                    cleaned_full = self._cleaned_full = \
                        self._registry.counter("reclaim.cleaned_full_pages")
                cleaned_full.value += 1
            elif vector:
                qp.post_write_sg(
                    [(remote_off + off, bytes(data[off:off + length]))
                     for off, length in vector])
                self._registry.add("reclaim.cleaned_guided_pages")
            else:
                # No live bytes at all: nothing to write.
                self._registry.add("reclaim.cleaned_empty_pages")
        except NodeFailedError:
            # Leave the page dirty; the cleaner retries next pass (and an
            # unprotected backend keeps the data safe locally meanwhile).
            self._registry.add("net.writeback_node_failures")
            return
        self._clean_vectors[vpn] = vector
        self._pt.set(vpn, entry & ~_DIRTY)
        self._tlb.invalidate(vpn)
        self._cleaned.value += 1

    def _evict(self, vpn: int, entry: int) -> None:
        """Unmap a clean page and free its frame."""
        assert not entry & _DIRTY, "evicting a dirty page"
        if self._config.guided_paging:
            vector = self._refresh_vector(vpn)
            if vector is not None:
                self._clean_vectors[vpn] = vector
                self._pt.set(vpn, pte_mod.make_action(vpn))
            else:
                self._pt.set(vpn, pte_mod.make_remote(
                    self._as.remote_pfn_for(vpn)))
        else:
            # REMOTE: the remote pfn in the payload, write bit as the tag.
            self._pt.set(vpn, (self._as.remote_pfn_for(vpn) << PAGE_SHIFT)
                         | pte_mod.PTE_WRITE)
        self._tlb.invalidate(vpn)
        self._frames.free(entry >> PAGE_SHIFT)
        self._lru.pop(vpn, None)
        # This unmap left no stale LRU entry (popped just above).
        self._unmaps_seen = self._pt.unmap_epoch
        self._evicted.value += 1

    def _refresh_vector(self, vpn: int) -> Optional[List[Range]]:
        """Re-ask the guide for live ranges at eviction time (§4.4).

        Frees (e.g. Redis DEL) clear allocator bitmaps without dirtying the
        page, so the live set can shrink after the last cleaning; the
        shrunken set is always covered by what the last write-back put on
        the memory node (any *new* allocation is written by the
        application, which dirties the page and forces a re-clean before
        the next eviction). Returns None when guided paging is off, the
        guide does not manage this page, or the full page must transfer.
        """
        if not self._config.guided_paging or self._allocator_guide is None:
            return None
        ranges = self._allocator_guide.live_ranges(vpn)
        if ranges is None:
            # Not an allocator page: guided only if the last clean recorded
            # a vector (it never does for foreign pages).
            return self._clean_vectors.get(vpn)
        return coalesce_ranges(ranges, MAX_SG_SEGMENTS, PAGE_SIZE)

    def _direct_reclaim(self, want: int) -> float:
        """Inline reclamation on the fault path; returns CPU time charged."""
        if self._deferred_ticks:
            self._replay_rotation()
        start = self._clock.now
        start_free = self._frames.free_frames
        cleaned_inline = 0
        scanned = 0
        for vpn in self._rotate(len(self._lru)):
            scanned += 1
            if self._frames.free_frames - start_free >= want:
                break
            entry = self._pt.get(vpn)
            if entry & _DIRTY:
                self._clean(vpn, entry)
                cleaned_inline += 1
                entry = self._pt.get(vpn)
                if entry & _DIRTY:
                    continue  # write-back failed (node down); not evictable
            self._evict(vpn, entry)
        reclaimed = self._frames.free_frames - start_free
        self._registry.add("reclaim.direct")
        self._registry.add("reclaim.direct_reclaimed_pages", reclaimed)
        # The write-back wire time of inline cleans is not hidden: Fastswap
        # style direct reclaim pays it on the critical path.
        cost = (scanned * self._model.fastswap_reclaim_per_page
                + cleaned_inline * self._model.rdma_write_latency(PAGE_SIZE))
        self._clock.advance(cost)
        if self._tracer.enabled:
            self._tracer.complete("reclaim.direct", "reclaim", start,
                                  self._clock.now - start,
                                  {"reclaimed": reclaimed,
                                   "scanned": scanned})
        return cost
