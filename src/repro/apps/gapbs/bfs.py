"""Breadth-first search over far-memory CSR (a GAPBS kernel).

The GAP Benchmark Suite's BFS is the canonical frontier traversal; the
paper evaluates PR and BC, but BFS is the primitive underneath BC and a
workload class of its own (top-down here; GAPBS's direction-switching
bottom-up phase needs in-edges, which our synthetic CSR does not store).
Access pattern: frontier-ordered random reads of adjacency slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.api import BaseSystem
from repro.apps.gapbs.graph import CsrGraph
from repro.obs.snapshot import MetricsSnapshot

EDGE_CYCLES = 2.0
THREADS = 4
SYNC_BATCH = 16


@dataclass
class BfsResult:
    n: int
    m: int
    source: int
    reached: int
    max_depth: int
    elapsed_us: float
    metrics: MetricsSnapshot


class BfsWorkload:
    """Top-down BFS from one source."""

    def __init__(self, source: int = 0) -> None:
        self.source = source

    def run(self, system: BaseSystem, graph: CsrGraph,
            guide=None) -> BfsResult:
        n = graph.n
        depth = np.full(n, -1, dtype=np.int64)
        depth[self.source] = 0
        frontier: List[int] = [self.source]
        if guide is not None:
            guide.on_frontier(frontier)
        sync_charge = system.sync_overhead_us * THREADS
        begin = system.clock.now
        level = 0
        reached = 1
        while frontier:
            level += 1
            next_frontier: List[int] = []
            for index, u in enumerate(frontier):
                neighbors = graph.neighbors(u)
                system.cpu_cycles(len(neighbors) * EDGE_CYCLES)
                for v in neighbors.tolist():
                    if depth[v] < 0:
                        depth[v] = level
                        next_frontier.append(v)
                        reached += 1
                if index % SYNC_BATCH == SYNC_BATCH - 1:
                    system.cpu(sync_charge)
            frontier = next_frontier
            if guide is not None and frontier:
                guide.on_frontier(frontier)
        elapsed = system.clock.now - begin
        return BfsResult(n=n, m=graph.m, source=self.source, reached=reached,
                         max_depth=int(depth.max()), elapsed_us=elapsed,
                         metrics=system.metrics())
