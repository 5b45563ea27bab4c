"""Typed array views over disaggregated memory.

Applications do their arithmetic in numpy but *all data lives in simulated
far memory*: every load/store moves real bytes through the MMU, faulting
and paging as it goes. Chunked access mirrors how a compiled program's
locality looks to the paging subsystem — memory disaggregation operates at
page granularity, so per-page traffic (not per-element Python overhead) is
the fidelity that matters.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.common.units import PAGE_SIZE
from repro.core.api import BaseSystem
from repro.mem.addrspace import Region


class PagedArray:
    """A fixed-length 1-D numpy-dtype array in far memory."""

    def __init__(self, system: BaseSystem, count: int, dtype=np.int64,
                 name: str = "array", region: Region = None, base: int = 0) -> None:
        if count <= 0:
            raise ValueError("count must be positive")
        self.system = system
        self.count = count
        self.dtype = np.dtype(dtype)
        self.itemsize = self.dtype.itemsize
        self.nbytes = count * self.itemsize
        if region is None:
            self.region = system.mmap(self.nbytes, ddc=True, name=name)
            self.base = self.region.base
        else:
            self.region = region
            self.base = base
            if base + self.nbytes > region.end:
                raise ValueError("array does not fit in region")

    # -- bulk access ---------------------------------------------------------

    def load(self, start: int, stop: int) -> np.ndarray:
        """Read elements ``[start, stop)`` through the paging path."""
        self._check(start, stop)
        raw = self.system.memory.read(self.base + start * self.itemsize,
                                      (stop - start) * self.itemsize)
        return np.frombuffer(raw, dtype=self.dtype).copy()

    def store(self, start: int, values: np.ndarray) -> None:
        """Write ``values`` at ``start`` through the paging path."""
        values = np.ascontiguousarray(values, dtype=self.dtype)
        self._check(start, start + len(values))
        self.system.memory.write(self.base + start * self.itemsize,
                                 memoryview(values.view(np.uint8)))

    # -- element access --------------------------------------------------------

    def get(self, index: int):
        return self.load(index, index + 1)[0]

    def set(self, index: int, value) -> None:
        self.store(index, np.array([value], dtype=self.dtype))

    # -- iteration ----------------------------------------------------------------

    def chunks(self, chunk_elems: int = PAGE_SIZE // 8
               ) -> Iterator[Tuple[int, int]]:
        """Yield ``(start, stop)`` windows covering the array in order."""
        if chunk_elems <= 0:
            raise ValueError("chunk size must be positive")
        for start in range(0, self.count, chunk_elems):
            yield start, min(start + chunk_elems, self.count)

    def _check(self, start: int, stop: int) -> None:
        if not 0 <= start <= stop <= self.count:
            raise IndexError(
                f"range [{start}, {stop}) outside array of {self.count}")

    def free(self) -> None:
        """Unmap the backing region (only for self-owned regions)."""
        self.system.munmap(self.region)


class PagedBytes:
    """A raw byte buffer in far memory with chunked IO."""

    def __init__(self, system: BaseSystem, nbytes: int,
                 name: str = "bytes") -> None:
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        self.system = system
        self.nbytes = nbytes
        self.region = system.mmap(nbytes, ddc=True, name=name)
        self.base = self.region.base

    def read(self, offset: int, size: int) -> bytes:
        if not 0 <= offset <= offset + size <= self.nbytes:
            raise IndexError("read outside buffer")
        return self.system.memory.read(self.base + offset, size)

    def write(self, offset: int, data: bytes) -> None:
        if not 0 <= offset <= offset + len(data) <= self.nbytes:
            raise IndexError("write outside buffer")
        self.system.memory.write(self.base + offset, data)

    def chunks(self, chunk_bytes: int = 16 * PAGE_SIZE
               ) -> Iterator[Tuple[int, int]]:
        for start in range(0, self.nbytes, chunk_bytes):
            yield start, min(start + chunk_bytes, self.nbytes)
