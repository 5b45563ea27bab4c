"""PageRank over a far-memory CSR graph (Figure 9(a)).

Push-style PageRank streams the offsets and edge arrays sequentially —
the prefetch-friendly end of graph processing. The 4-thread execution of
§6.2 is modeled by charging per-batch synchronization at the kernel's
primitive cost: OSv's synchronization is dearer than Linux's, which is
exactly why Fastswap edges out DiLOS here when memory is plentiful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.api import BaseSystem
from repro.apps.gapbs.graph import CsrGraph
from repro.obs.snapshot import MetricsSnapshot

#: Charged compute per edge (load target, add contribution).
EDGE_CYCLES = 3.0
#: Vertices per synchronization batch (lock striping across 4 threads).
SYNC_BATCH = 32
THREADS = 4


@dataclass
class PageRankResult:
    n: int
    m: int
    iterations: int
    elapsed_us: float
    top_vertex: int
    metrics: MetricsSnapshot


class PageRankWorkload:
    """Iterative PageRank with damping 0.85."""

    def __init__(self, iterations: int = 5, damping: float = 0.85) -> None:
        self.iterations = iterations
        self.damping = damping

    def run(self, system: BaseSystem, graph: CsrGraph) -> PageRankResult:
        n = graph.n
        ranks = np.full(n, 1.0 / n)
        begin = system.clock.now
        sync_charge = system.sync_overhead_us * THREADS
        for _iteration in range(self.iterations):
            next_ranks = np.full(n, (1.0 - self.damping) / n)
            batch_edges = 0
            for u, neighbors in graph.scan_vertices():
                if len(neighbors):
                    share = self.damping * ranks[u] / len(neighbors)
                    np.add.at(next_ranks, neighbors, share)
                    batch_edges += len(neighbors)
                if u % SYNC_BATCH == SYNC_BATCH - 1:
                    system.cpu_cycles(batch_edges * EDGE_CYCLES)
                    system.cpu(sync_charge)
                    batch_edges = 0
            system.cpu_cycles(batch_edges * EDGE_CYCLES)
            ranks = next_ranks
        elapsed = system.clock.now - begin
        return PageRankResult(n=n, m=graph.m, iterations=self.iterations,
                              elapsed_us=elapsed,
                              top_vertex=int(ranks.argmax()),
                              metrics=system.metrics())
