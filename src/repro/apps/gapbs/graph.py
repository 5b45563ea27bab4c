"""Compressed-sparse-row graphs in far memory.

The GAP Benchmark Suite stores graphs as CSR: an offsets array of n+1
entries and an edge array of m destination ids. Both live in disaggregated
memory here; per-vertex metadata (ranks, depths) is small enough to stay
local, exactly as the 17 GB Twitter working set of §6.2 is dominated by
the edge array.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.core.api import BaseSystem
from repro.apps.views import PagedArray

#: Vertices per offsets chunk when scanning sequentially.
OFFSET_CHUNK = 2048


class CsrGraph:
    """A directed graph in CSR form over far memory."""

    def __init__(self, system: BaseSystem, offsets: np.ndarray,
                 edges: np.ndarray) -> None:
        if offsets.ndim != 1 or edges.ndim != 1:
            raise ValueError("offsets and edges must be 1-D")
        if offsets[0] != 0 or offsets[-1] != len(edges):
            raise ValueError("malformed CSR offsets")
        if np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        self.system = system
        self.n = len(offsets) - 1
        self.m = len(edges)
        self._offsets = PagedArray(system, len(offsets), np.int64,
                                   name="csr-offsets")
        self._edges = PagedArray(system, max(1, len(edges)), np.int64,
                                 name="csr-edges")
        for start, stop in self._offsets.chunks():
            self._offsets.store(start, offsets[start:stop])
        for start, stop in self._edges.chunks():
            self._edges.store(start, edges[start:stop])

    def neighbors(self, u: int) -> np.ndarray:
        """Adjacency list of ``u`` — a random access into the edge array."""
        off = self._offsets.load(u, u + 2)
        if off[0] == off[1]:
            return np.empty(0, dtype=np.int64)
        return self._edges.load(int(off[0]), int(off[1]))

    def scan_vertices(self) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(u, neighbors)`` for all vertices, streaming the edge
        array sequentially (the PageRank access pattern)."""
        for chunk_start in range(0, self.n, OFFSET_CHUNK):
            chunk_stop = min(chunk_start + OFFSET_CHUNK, self.n)
            offs = self._offsets.load(chunk_start, chunk_stop + 1)
            lo, hi = int(offs[0]), int(offs[-1])
            edge_block = (self._edges.load(lo, hi) if hi > lo
                          else np.empty(0, dtype=np.int64))
            for i in range(chunk_stop - chunk_start):
                a, b = int(offs[i]) - lo, int(offs[i + 1]) - lo
                yield chunk_start + i, edge_block[a:b]
