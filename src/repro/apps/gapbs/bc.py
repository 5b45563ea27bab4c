"""Betweenness centrality (Brandes) over far-memory CSR (Figure 9(b)).

BC's data access is "more random than PageRank, as it traverses one more
indirection through tables" (§6.2): each BFS step reads the adjacency
slice of whichever vertex the frontier surfaced — random accesses into the
edge array that defeat sequential prefetchers and stress the fault path.
Per-vertex auxiliaries (sigma, depth, delta) are O(V) and stay local, as
the far-memory working set is dominated by the O(E) edge array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.api import BaseSystem
from repro.apps.gapbs.graph import CsrGraph
from repro.obs.snapshot import MetricsSnapshot

#: Charged compute per edge relaxed (depth check, sigma update).
EDGE_CYCLES = 4.0
THREADS = 4
#: Frontier vertices per synchronization (atomic frontier appends).
SYNC_BATCH = 16


@dataclass
class BetweennessResult:
    n: int
    m: int
    sources: int
    elapsed_us: float
    top_vertex: int
    metrics: MetricsSnapshot


class BetweennessWorkload:
    """Brandes' algorithm from a sample of source vertices."""

    def __init__(self, n_sources: int = 2, seed: int = 17) -> None:
        if n_sources < 1:
            raise ValueError("need at least one source")
        self.n_sources = n_sources
        self.seed = seed

    def pick_sources(self, graph: CsrGraph) -> List[int]:
        rng = np.random.default_rng(self.seed)
        return [int(v) for v in rng.choice(graph.n, size=self.n_sources,
                                           replace=False)]

    def run(self, system: BaseSystem, graph: CsrGraph,
            sources: Optional[Sequence[int]] = None,
            guide=None) -> BetweennessResult:
        """Run BC; an optional :class:`~repro.apps.gapbs.guide.
        BcFrontierGuide` is informed of each new frontier (the loader-hook
        model: the algorithm itself has no guide knowledge beyond the
        hook call sites the loader injects)."""
        n = graph.n
        centrality = np.zeros(n)
        sync_charge = system.sync_overhead_us * THREADS
        if sources is None:
            sources = self.pick_sources(graph)
        begin = system.clock.now
        for source in sources:
            sigma = np.zeros(n)
            depth = np.full(n, -1, dtype=np.int64)
            sigma[source] = 1.0
            depth[source] = 0
            order: List[int] = []
            preds: List[List[int]] = [[] for _ in range(n)]
            frontier = [source]
            if guide is not None:
                guide.on_frontier(frontier)
            processed = 0
            while frontier:
                next_frontier: List[int] = []
                for u in frontier:
                    order.append(u)
                    neighbors = graph.neighbors(u)  # random edge access
                    system.cpu_cycles(len(neighbors) * EDGE_CYCLES)
                    for v in neighbors.tolist():
                        if depth[v] < 0:
                            depth[v] = depth[u] + 1
                            next_frontier.append(v)
                        if depth[v] == depth[u] + 1:
                            sigma[v] += sigma[u]
                            preds[v].append(u)
                    processed += 1
                    if processed % SYNC_BATCH == 0:
                        system.cpu(sync_charge)
                frontier = next_frontier
                if guide is not None and frontier:
                    guide.on_frontier(frontier)
            # Dependency accumulation, deepest first.
            delta = np.zeros(n)
            for u in reversed(order):
                for p in preds[u]:
                    delta[p] += sigma[p] / sigma[u] * (1.0 + delta[u])
                system.cpu_cycles(len(preds[u]) * EDGE_CYCLES)
                if u != source:
                    centrality[u] += delta[u]
        elapsed = system.clock.now - begin
        return BetweennessResult(n=n, m=graph.m, sources=len(sources),
                                 elapsed_us=elapsed,
                                 top_vertex=int(centrality.argmax()),
                                 metrics=system.metrics())
