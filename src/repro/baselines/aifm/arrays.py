"""Remoteable arrays: the AIFM container the ported workloads build on.

A :class:`RemArray` shards fixed-size items into chunk objects. Element
accesses pay the per-dereference presence check (this is what hurts AIFM
at 100% local memory); sequential scans engage the streaming prefetcher,
which keeps ``prefetch_depth`` chunks in flight and achieves the
"almost perfect overlapping of computation and networking" of §6.2.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.baselines.aifm.runtime import AifmRuntime, RemPtr


class RemArray:
    """A far-memory array of ``count`` fixed-size items."""

    def __init__(self, runtime: AifmRuntime, count: int, item_size: int,
                 chunk_bytes: int = 4096) -> None:
        if count <= 0 or item_size <= 0:
            raise ValueError("count and item_size must be positive")
        if item_size > chunk_bytes:
            raise ValueError("item larger than a chunk")
        self._runtime = runtime
        self.count = count
        self.item_size = item_size
        self.items_per_chunk = chunk_bytes // item_size
        nchunks = (count + self.items_per_chunk - 1) // self.items_per_chunk
        self._chunks: List[RemPtr] = [
            runtime.allocate(self._chunk_size(ci)) for ci in range(nchunks)]

    def _chunk_size(self, ci: int) -> int:
        first = ci * self.items_per_chunk
        items = min(self.items_per_chunk, self.count - first)
        return items * self.item_size

    def _locate(self, index: int):
        if not 0 <= index < self.count:
            raise IndexError(f"index {index} out of range [0, {self.count})")
        return (index // self.items_per_chunk,
                (index % self.items_per_chunk) * self.item_size)

    @property
    def nchunks(self) -> int:
        return len(self._chunks)

    # -- element access (pays a deref check per call) -----------------------

    def get(self, index: int) -> bytes:
        ci, offset = self._locate(index)
        return self._chunks[ci].read(offset, self.item_size)

    def set(self, index: int, data: bytes) -> None:
        if len(data) != self.item_size:
            raise ValueError("item size mismatch")
        ci, offset = self._locate(index)
        self._chunks[ci].write(data, offset)

    # -- bulk chunk access (one deref per chunk) ------------------------------

    def write_chunk(self, ci: int, data: bytes) -> None:
        self._chunks[ci].write(data)

    # -- streaming scan with prefetch -------------------------------------------

    def scan(self, start: int = 0, stop: Optional[int] = None) -> Iterator[bytes]:
        """Yield items in order, keeping the prefetch pipeline primed."""
        stop = self.count if stop is None else stop
        depth = self._runtime.config.prefetch_depth
        last_prefetched = -1
        index = start
        while index < stop:
            ci, offset = self._locate(index)
            horizon = min(ci + depth, self.nchunks - 1)
            for ahead in range(max(ci + 1, last_prefetched + 1), horizon + 1):
                self._chunks[ahead].prefetch()
            last_prefetched = max(last_prefetched, horizon)
            yield self._chunks[ci].read(offset, self.item_size)
            index += 1

    def scan_chunks(self, start_chunk: int = 0) -> Iterator[bytes]:
        """Yield whole chunks in order with streaming prefetch."""
        depth = self._runtime.config.prefetch_depth
        last_prefetched = -1
        for ci in range(start_chunk, self.nchunks):
            horizon = min(ci + depth, self.nchunks - 1)
            for ahead in range(max(ci + 1, last_prefetched + 1), horizon + 1):
                self._chunks[ahead].prefetch()
            last_prefetched = max(last_prefetched, horizon)
            yield self._chunks[ci].read()

    def free(self) -> None:
        for chunk in self._chunks:
            chunk.free()
        self._chunks = []
