"""Configuration for the AIFM baseline."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import KernelConfig


@dataclass
class AifmConfig(KernelConfig):
    """Knobs for the modeled AIFM runtime.

    ``local_mem_bytes`` is the local heap budget (the paper's
    ``kCacheGBs`` constant, scaled). ``transport`` defaults to TCP,
    matching the published system: AIFM uses a user-space TCP stack,
    which the paper calibrates at 14,000 cycles slower than RDMA per
    4 KiB transfer.
    """

    #: "tcp" (published AIFM) or "rdma" (for like-for-like fabric studies).
    transport: str = "tcp"
    #: Chunks the streaming prefetcher keeps in flight ahead of a scan.
    prefetch_depth: int = 8

    def validate(self) -> None:
        super().validate()
        if self.transport not in ("tcp", "rdma"):
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.prefetch_depth < 0:
            raise ValueError("prefetch depth must be >= 0")
