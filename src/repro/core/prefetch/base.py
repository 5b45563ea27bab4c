"""Prefetcher interface.

Prefetchers run *inside the fault window*: the handler issues its RDMA fetch
asynchronously and, while the 4 KiB page is on the wire (2-3 us), runs the
PTE hit tracker and the prefetcher. The kernel hands the prefetcher a
:class:`PrefetchOps` capability object instead of raw internals, so guides
and built-ins share the same surface.
"""

from __future__ import annotations

import abc
from typing import Protocol


class PrefetchOps(Protocol):
    """What a prefetcher may do, as granted by the kernel."""

    def prefetch(self, vpn: int) -> bool:
        """Issue an async fetch of ``vpn`` on the prefetch QP.

        Returns False if the page is not remote or no frame is available
        (prefetch never steals the fault path's reserve frames).
        """

    def hit_ratio(self) -> float:
        """Recent prefetch hit ratio from the PTE hit tracker (0..1)."""


class Prefetcher(abc.ABC):
    """Base class for page prefetch policies."""

    name = "abstract"

    @abc.abstractmethod
    def on_major_fault(self, vpn: int, ops: PrefetchOps) -> None:
        """Called once per major fault, inside the fetch window."""


class NoPrefetcher(Prefetcher):
    """The §6 ``no-prefetch`` configuration."""

    name = "none"

    def on_major_fault(self, vpn: int, ops: PrefetchOps) -> None:
        return None
