"""DiLOS page prefetchers (§4.3): readahead, Leap trend-based, hit tracker."""

from typing import Dict, Type

from repro.core.prefetch.base import NoPrefetcher, Prefetcher, PrefetchOps
from repro.core.prefetch.readahead import ReadaheadPrefetcher
from repro.core.prefetch.tracker import PteHitTracker
from repro.core.prefetch.stride import StridePrefetcher
from repro.core.prefetch.trend import TrendPrefetcher


#: §6 presentation name -> prefetcher class; the one list of prefetchers.
PREFETCHERS: Dict[str, Type[Prefetcher]] = {
    "none": NoPrefetcher,
    "readahead": ReadaheadPrefetcher,
    "trend": TrendPrefetcher,
    "stride": StridePrefetcher,
}


def make_prefetcher(name: str) -> Prefetcher:
    """Build a prefetcher by its §6 presentation name, at its default
    window."""
    try:
        prefetcher = PREFETCHERS[name]
    except KeyError:
        raise ValueError(f"unknown prefetcher {name!r}") from None
    return prefetcher()


__all__ = [
    "NoPrefetcher",
    "PREFETCHERS",
    "Prefetcher",
    "PrefetchOps",
    "PteHitTracker",
    "ReadaheadPrefetcher",
    "StridePrefetcher",
    "TrendPrefetcher",
    "make_prefetcher",
]
