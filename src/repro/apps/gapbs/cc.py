"""Connected components via label propagation (a GAPBS kernel).

Treats the directed CSR as undirected by propagating labels along out
edges until fixpoint (Shiloach-Vishkin-flavoured pointer jumping on the
label array). Access pattern: repeated full sequential sweeps of the edge
array — the prefetch-friendly opposite of BC, useful as a second
sequential graph workload beside PageRank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.api import BaseSystem
from repro.apps.gapbs.graph import CsrGraph
from repro.obs.snapshot import MetricsSnapshot

EDGE_CYCLES = 2.5
THREADS = 4
SYNC_BATCH = 64


@dataclass
class ComponentsResult:
    n: int
    m: int
    components: int
    iterations: int
    elapsed_us: float
    metrics: MetricsSnapshot


class ConnectedComponentsWorkload:
    """Label propagation to fixpoint, with pointer-jumping compression."""

    def __init__(self, max_iterations: int = 64) -> None:
        self.max_iterations = max_iterations

    def run(self, system: BaseSystem, graph: CsrGraph) -> ComponentsResult:
        n = graph.n
        labels = np.arange(n, dtype=np.int64)
        sync_charge = system.sync_overhead_us * THREADS
        begin = system.clock.now
        iterations = 0
        changed = True
        while changed and iterations < self.max_iterations:
            iterations += 1
            changed = False
            for u, neighbors in graph.scan_vertices():
                if not len(neighbors):
                    continue
                system.cpu_cycles(len(neighbors) * EDGE_CYCLES)
                best = min(int(labels[neighbors].min()), int(labels[u]))
                if best < labels[u]:
                    labels[u] = best
                    changed = True
                updates = labels[neighbors] > best
                if updates.any():
                    labels[neighbors[updates]] = best
                    changed = True
                if u % SYNC_BATCH == SYNC_BATCH - 1:
                    system.cpu(sync_charge)
            # Pointer jumping: compress label chains (local arrays).
            labels = labels[labels]
        elapsed = system.clock.now - begin
        return ComponentsResult(n=n, m=graph.m,
                                components=len(np.unique(labels)),
                                iterations=iterations, elapsed_us=elapsed,
                                metrics=system.metrics())
