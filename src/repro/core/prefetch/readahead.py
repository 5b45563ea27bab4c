"""Linux-style readahead prefetcher.

Models the swap readahead DiLOS ships as one of its two general-purpose
prefetchers: on a major fault, fetch the next ``window`` pages. The window
scales with the measured hit ratio (the VMA-based readahead heuristic [28]),
between a floor of 2 and the configured cluster size (Linux's swap cluster
default is 8 = 2**page_cluster).
"""

from __future__ import annotations

from repro.core.prefetch.base import Prefetcher, PrefetchOps


class ReadaheadPrefetcher(Prefetcher):
    """Sequential next-N-pages prefetch with hit-ratio window scaling."""

    name = "readahead"

    def __init__(self, base_window: int = 8, min_window: int = 2) -> None:
        if base_window < 1:
            raise ValueError("window must be >= 1")
        self.base_window = base_window
        self.min_window = min(min_window, base_window)
        self.issued = 0

    def current_window(self, ops: PrefetchOps) -> int:
        scaled = int(round(self.base_window * ops.hit_ratio()))
        return max(self.min_window, min(self.base_window, scaled))

    def on_major_fault(self, vpn: int, ops: PrefetchOps) -> None:
        prefetch = ops.prefetch
        for offset in range(1, self.current_window(ops)):
            if prefetch(vpn + offset):
                self.issued += 1
