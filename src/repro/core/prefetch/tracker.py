"""The PTE hit tracker (§4.3).

DiLOS has no swap cache, so it cannot learn prefetch effectiveness from
minor-fault statistics the way Linux does. Instead, prefetched pages are
mapped immediately and this tracker later *scans their accessed bits*: a
prefetched PTE whose accessed bit is set was useful; one still clear past a
grace period was wasted. Scans happen inside fault windows, where the
handler is waiting on the wire anyway, so tracking adds no critical-path
latency.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.common.clock import Clock
from repro.mem import pte as pte_mod
from repro.mem.page_table import PageTable
from repro.net.latency import LatencyModel
from repro.obs.tracer import NULL_TRACER

_PRESENT_ACCESSED = pte_mod.PTE_PRESENT | pte_mod.PTE_ACCESSED


class PteHitTracker:
    """Scans accessed bits of recently prefetched PTEs."""

    #: A prefetched page unreferenced for this long counts as a miss.
    GRACE_US = 40.0

    def __init__(self, clock: Clock, page_table: PageTable,
                 model: LatencyModel, ema_alpha: float = 0.2,
                 tracer=NULL_TRACER) -> None:
        self._clock = clock
        self._pt = page_table
        self._model = model
        self._alpha = ema_alpha
        self._tracer = tracer
        self._pending: Deque[Tuple[int, float]] = deque()
        #: Optimistic prior so cold-start prefetching opens a full window.
        self._hit_ratio = 1.0
        self.hits = 0
        self.misses = 0
        self.scanned = 0

    def note_installed(self, vpn: int) -> None:
        """Record that a prefetched page was just mapped."""
        self._pending.append((vpn, self._clock.now))

    def hit_ratio(self) -> float:
        return self._hit_ratio

    def scan(self, budget: int = 64) -> None:
        """Classify up to ``budget`` matured entries; charges scan time."""
        matured = 0
        deadline = self._clock.now - self.GRACE_US
        while self._pending and matured < budget:
            vpn, installed_at = self._pending[0]
            hit = self._pt.get(vpn) & _PRESENT_ACCESSED == _PRESENT_ACCESSED
            if not hit and installed_at > deadline:
                break  # not yet matured; later entries are younger still
            self._pending.popleft()
            matured += 1
            if hit:
                self.hits += 1
            else:
                self.misses += 1
            self._hit_ratio = (self._alpha * (1.0 if hit else 0.0)
                               + (1.0 - self._alpha) * self._hit_ratio)
        if matured:
            self.scanned += matured
            start = self._clock.now
            self._clock.advance(matured * self._model.dilos_hit_track_per_pte)
            if self._tracer.enabled:
                self._tracer.complete(
                    "prefetch.tracker_scan", "prefetch", start,
                    self._clock.now - start,
                    {"matured": matured, "hit_ratio": self._hit_ratio})
