"""Sequential read/write microbenchmark (§6.1).

"The workload first allocates and populates [a region] of memory and then
reads or writes the region with 4 KB strides." Used for Table 1 (fault
split), Table 2 (throughput), Table 3 (fault counts) and Figure 6 (latency
breakdown).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.units import MIB, PAGE_SIZE
from repro.core.api import BaseSystem
from repro.obs.snapshot import MetricsSnapshot


@dataclass
class SeqResult:
    """Outcome of one sequential pass."""

    mode: str
    bytes_moved: int
    elapsed_us: float
    metrics: MetricsSnapshot

    @property
    def gb_per_s(self) -> float:
        # 1 byte/us == 1 MB/s; GB/s == bytes/us / 1000.
        return self.bytes_moved / self.elapsed_us / 1000.0


class SequentialWorkload:
    """Populate a region, then stride through it at page granularity."""

    def __init__(self, working_set_bytes: int = 16 * MIB) -> None:
        if working_set_bytes % PAGE_SIZE:
            raise ValueError("working set must be page-aligned")
        self.working_set_bytes = working_set_bytes

    @property
    def footprint_bytes(self) -> int:
        return self.working_set_bytes

    @staticmethod
    def _pattern(i: int) -> bytes:
        return bytes(((i * 29 + j) % 256) for j in range(32))

    def populate(self, system: BaseSystem):
        region = system.mmap(self.working_set_bytes, name="seqrw")
        pages = self.working_set_bytes // PAGE_SIZE
        for i in range(pages):
            system.memory.write(region.base + i * PAGE_SIZE, self._pattern(i))
        return region

    def run(self, system: BaseSystem, mode: str = "read",
            verify: bool = False) -> SeqResult:
        """One full pass; ``mode`` is ``read`` or ``write``."""
        if mode not in ("read", "write"):
            raise ValueError(f"unknown mode {mode!r}")
        region = self.populate(system)
        pages = self.working_set_bytes // PAGE_SIZE
        start = system.clock.now
        fill = b"\xC5" * PAGE_SIZE
        for i in range(pages):
            va = region.base + i * PAGE_SIZE
            if mode == "read":
                data = system.memory.read(va, PAGE_SIZE)
                if verify and data[:32] != self._pattern(i):
                    raise AssertionError(f"page {i} corrupted")
            else:
                system.memory.write(va, fill)
        elapsed = system.clock.now - start
        return SeqResult(mode=mode, bytes_moved=pages * PAGE_SIZE,
                         elapsed_us=elapsed, metrics=system.metrics())
