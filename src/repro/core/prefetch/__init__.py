"""DiLOS page prefetchers (§4.3): readahead, Leap trend-based, hit tracker."""

from repro.core.prefetch.base import NoPrefetcher, Prefetcher, PrefetchOps
from repro.core.prefetch.readahead import ReadaheadPrefetcher
from repro.core.prefetch.tracker import PteHitTracker
from repro.core.prefetch.stride import StridePrefetcher
from repro.core.prefetch.trend import TrendPrefetcher


def make_prefetcher(name: str) -> Prefetcher:
    """Build a prefetcher by its §6 presentation name, at its default
    window."""
    if name == "none":
        return NoPrefetcher()
    if name == "readahead":
        return ReadaheadPrefetcher()
    if name == "trend":
        return TrendPrefetcher()
    if name == "stride":
        return StridePrefetcher()
    raise ValueError(f"unknown prefetcher {name!r}")


__all__ = [
    "NoPrefetcher",
    "Prefetcher",
    "PrefetchOps",
    "PteHitTracker",
    "ReadaheadPrefetcher",
    "StridePrefetcher",
    "TrendPrefetcher",
    "make_prefetcher",
]
