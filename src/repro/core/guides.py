"""App-aware guides (§4.3, §4.4).

A *guide* is a pluggable module, shipped alongside an application binary,
that refines DiLOS' default paging behaviour without modifying the
application itself:

* :class:`PrefetchGuide` — drives app-aware prefetching. On a fault it gets
  a :class:`GuideContext` through which it can issue *subpage* fetches on
  the dedicated guide QP (arriving well before the 4 KiB page, since a
  ~64 B read is ~0.6 us cheaper and rides its own queue) and chase pointers:
  the Figure 5 linked-list pattern and the Figure 11 Redis quicklist guide.

* :class:`AllocatorGuide` — drives §4.4 guided paging. It reports the live
  byte ranges within a page (from the user-level allocator's per-page
  bitmaps); the cleaner writes back only those ranges with a scatter-gather
  verb, the reclaimer records the vector in an ACTION PTE, and the fault
  handler later fetches only the vector.
"""

from __future__ import annotations

import abc
from typing import Callable, List, Optional, Tuple

Range = Tuple[int, int]  # (offset within page, length)


class PrefetchGuide(abc.ABC):
    """App-aware prefetch policy, invoked before the default prefetcher."""

    @abc.abstractmethod
    def on_fault(self, ctx: "GuideContext", va: int) -> bool:
        """Handle a major fault at ``va``.

        Return True to claim the fault (the default prefetcher is skipped),
        False to fall through to the general-purpose prefetcher.
        """


class AllocatorGuide(abc.ABC):
    """Reports live object ranges for guided paging."""

    @abc.abstractmethod
    def live_ranges(self, vpn: int) -> Optional[List[Range]]:
        """Live byte ranges of page ``vpn``, or None to page the full 4 KiB.

        An empty list means the page holds no live data at all (it can be
        dropped without any write-back and refetched as zeros).
        """


class GuideContext:
    """Capabilities the kernel grants a prefetch guide during one fault.

    Built by the DiLOS kernel; guides never touch kernel internals.
    """

    def __init__(self, kernel) -> None:
        self._kernel = kernel

    def prefetch_page(self, va: int) -> bool:
        """Async full-page prefetch of the page containing ``va``."""
        return self._kernel.prefetch_vpn(va >> 12)

    def fetch_subpage(self, va: int, size: int,
                      callback: Callable[[bytes], None]) -> bool:
        """Fetch ``size`` bytes at ``va`` on the guide QP.

        ``callback(data)`` runs when the subpage arrives — typically ahead
        of any in-flight 4 KiB fetch of the same page. If the page is
        already local the callback runs immediately with the local bytes.
        Returns False when the bytes are unreachable (e.g. never evicted
        and not local — nothing to chase).
        """
        return self._kernel.guide_subpage_fetch(va, size, callback)


def coalesce_ranges(ranges: List[Range], max_segments: int,
                    page_size: int = 4096) -> List[Range]:
    """Merge live ranges into at most ``max_segments`` covering segments.

    §6.3: vectorized RDMA slows sharply past three segments, so the guide
    caps vectors at three by merging the ranges separated by the smallest
    gaps — the merged segments *cover* every live byte (plus the swallowed
    gaps), trading a little bandwidth for short vectors.
    """
    if max_segments < 1:
        raise ValueError("max_segments must be >= 1")
    if not ranges:
        return []
    ordered = sorted(ranges)
    merged: List[List[int]] = []
    for start, length in ordered:
        if length <= 0:
            raise ValueError(f"non-positive range length {length}")
        if start < 0 or start + length > page_size:
            raise ValueError(f"range ({start}, {length}) outside page")
        if merged and start <= merged[-1][0] + merged[-1][1]:
            end = max(merged[-1][0] + merged[-1][1], start + length)
            merged[-1][1] = end - merged[-1][0]
        else:
            merged.append([start, length])
    while len(merged) > max_segments:
        # Merge the adjacent pair with the smallest gap between them.
        best = min(range(len(merged) - 1),
                   key=lambda i: merged[i + 1][0] - (merged[i][0] + merged[i][1]))
        end = merged[best + 1][0] + merged[best + 1][1]
        merged[best][1] = end - merged[best][0]
        del merged[best + 1]
    return [(start, length) for start, length in merged]
