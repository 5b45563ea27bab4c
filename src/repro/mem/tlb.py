"""A software model of the translation lookaside buffer.

The TLB caches ``vpn -> (frame, writable, dirty_set)`` so repeated accesses
to a hot page skip the page-table walk. Anything that rewrites a PTE
(eviction, accessed-bit clearing by the hit tracker or the clock algorithm)
must invalidate the entry — the simulated equivalents of TLB shootdowns.

``dirty_set`` mirrors x86: the first *write* through a clean translation
must go back to the PTE to set the dirty bit; afterwards writes are pure
TLB hits.

This sits on the per-access hot path, so the class is ``__slots__``-ed and
exposes :meth:`lookup_run` — a coalesced lookup that services a run of
consecutive pure hits in one call with exactly the same hit accounting and
LRU motion as per-page :meth:`lookup` calls would produce. The entry store
is intentionally reachable as :attr:`entries` so
:class:`~repro.mem.vm.VirtualMemory` can inline the hit path; any code
that *mutates* it must go through the methods here to keep the hit/miss
counters honest.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple


class Tlb:
    """Fixed-capacity LRU translation cache."""

    __slots__ = ("_capacity", "entries", "hits", "misses")

    def __init__(self, capacity: int = 1536) -> None:
        if capacity <= 0:
            raise ValueError("TLB capacity must be positive")
        self._capacity = capacity
        self.entries: "OrderedDict[int, Tuple[int, bool, bool]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, vpn: int) -> Optional[Tuple[int, bool, bool]]:
        """Return ``(frame, writable, dirty_set)`` or None on a miss."""
        entry = self.entries.get(vpn)
        if entry is None:
            self.misses += 1
            return None
        self.entries.move_to_end(vpn)
        self.hits += 1
        return entry

    def lookup_run(self, vpn: int, count: int) -> int:
        """Coalesced lookup: the length of the hit run at ``vpn``.

        Walks up to ``count`` consecutive pages, counting a hit and
        refreshing LRU position for each — identical accounting to
        ``count`` individual :meth:`lookup` calls. Stops at the first
        absent page; that page is *not* counted here — the caller's slow
        path performs the one real lookup for it, so totals match the
        per-page path.
        """
        entries = self.entries
        move = entries.move_to_end
        n = 0
        for v in range(vpn, vpn + count):
            if v not in entries:
                break
            move(v)
            n += 1
        self.hits += n
        return n

    def fill(self, vpn: int, frame: int, writable: bool, dirty_set: bool) -> None:
        """Install a translation, evicting LRU if full."""
        self.entries[vpn] = (frame, writable, dirty_set)
        self.entries.move_to_end(vpn)
        if len(self.entries) > self._capacity:
            self.entries.popitem(last=False)

    def mark_dirty_set(self, vpn: int) -> None:
        """Record that the PTE dirty bit has been set for ``vpn``."""
        entry = self.entries.get(vpn)
        if entry is not None:
            frame, writable, _ = entry
            self.entries[vpn] = (frame, writable, True)

    def invalidate(self, vpn: int) -> None:
        """Shoot down a single translation."""
        self.entries.pop(vpn, None)

    def flush(self) -> None:
        """Drop every translation."""
        self.entries.clear()

    def __len__(self) -> int:
        return len(self.entries)
