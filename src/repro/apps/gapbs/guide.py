"""An app-aware guide for graph traversal (guide-API generality demo).

§4.3's guides are not Redis-specific: any application that knows its next
accesses can convey them. Betweenness centrality is the perfect customer —
its BFS produces, at every level, the exact list of vertices whose
adjacency slices it will read next, yet a page-granular prefetcher sees
only randomness.

:class:`BcFrontierGuide` is told of each frontier the workload forms (a
call the workload itself makes, where the paper's loader would hook it):
for each upcoming vertex it subpage-fetches the two CSR offsets (16 bytes,
arriving well before any full page) and then prefetches the pages holding
that vertex's slice of the edge array.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.common.units import PAGE_SIZE
from repro.core.guides import GuideContext, PrefetchGuide
from repro.apps.gapbs.graph import CsrGraph


class BcFrontierGuide(PrefetchGuide):
    """Prefetches adjacency lists for the vertices a BFS is about to visit."""

    #: Vertices chased per frontier hook. The lead must stay small: a
    #: page prefetched hundreds of vertices early is evicted again before
    #: the BFS reaches it (the cache holds only a sliver of the edge
    #: array), so the guide keeps a just-in-time pipeline instead.
    RUNAHEAD = 6
    #: Vertices chased per fault (the app advances one vertex per fault,
    #: so 2 keeps the pipeline a few vertices ahead, no more).
    FAULT_RUNAHEAD = 2

    def __init__(self, graph: CsrGraph) -> None:
        # Layout knowledge — the application semantics a guide carries.
        self._offsets_base = graph._offsets.base
        self._edges_base = graph._edges.base
        self._itemsize = 8
        self._ctx: GuideContext = None  # type: ignore[assignment]
        self._pending: List[int] = []
        self.vertices_chased = 0
        self.edge_pages_prefetched = 0

    def bind(self, system) -> None:
        """Attach to a booted DiLOS system (register + build a context)."""
        self._ctx = GuideContext(system.kernel)
        system.kernel.register_prefetch_guide(self)

    # -- called by the workload when it forms a new frontier --------------

    def on_frontier(self, vertices: Iterable[int]) -> None:
        if self._ctx is None:
            raise RuntimeError("guide not bound to a system")
        self._pending = list(vertices)
        self._drain(self.RUNAHEAD)

    def _drain(self, budget: int) -> None:
        while budget > 0 and self._pending:
            vertex = self._pending.pop(0)
            self._chase_vertex(vertex)
            budget -= 1

    def _chase_vertex(self, vertex: int) -> None:
        self.vertices_chased += 1
        offsets_va = self._offsets_base + vertex * self._itemsize

        def on_offsets(raw: bytes) -> None:
            begin = int.from_bytes(raw[0:8], "little")
            end = int.from_bytes(raw[8:16], "little")
            if end <= begin:
                return
            first = self._edges_base + begin * self._itemsize
            last = self._edges_base + end * self._itemsize - 1
            page = first - (first % PAGE_SIZE)
            while page <= last:
                if self._ctx.prefetch_page(page):
                    self.edge_pages_prefetched += 1
                page += PAGE_SIZE

        self._ctx.fetch_subpage(offsets_va, 16, on_offsets)

    # -- fault-time refill: keep running ahead while the app waits ----------

    def on_fault(self, ctx: GuideContext, va: int) -> bool:
        self._drain(self.FAULT_RUNAHEAD)
        # Claim the fault: random adjacency access has nothing for the
        # general-purpose prefetchers anyway.
        return True
