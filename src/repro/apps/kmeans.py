"""K-means clustering over far-memory points (Figure 7(b)).

The paper runs scikit-learn's k-means; its chunked distance computations
visit point blocks in an order with little page locality, which "stresses
the slow page reclamation" (§6.2) — the workload where DiLOS beats
Fastswap by up to 2.71x. We reproduce that structure: Lloyd's algorithm
over a far-memory point matrix, visiting chunks in a shuffled order each
iteration, with distance arithmetic charged per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.api import BaseSystem
from repro.apps.views import PagedArray
from repro.obs.snapshot import MetricsSnapshot

#: Points per processed chunk (rows loaded per step).
CHUNK_POINTS = 256
#: Charged compute per point per centroid per dimension (sub, mul, add).
DISTANCE_CYCLES = 1.5


@dataclass
class KMeansResult:
    points: int
    clusters: int
    iterations: int
    inertia: float
    elapsed_us: float
    metrics: MetricsSnapshot


class KMeansWorkload:
    """Lloyd's k-means on ``n`` points of dimension ``dim``."""

    def __init__(self, n_points: int = 1 << 15, dim: int = 8,
                 clusters: int = 10, iterations: int = 4,
                 seed: int = 77) -> None:
        if clusters < 2 or n_points < clusters:
            raise ValueError("need n_points >= clusters >= 2")
        self.n_points = n_points
        self.dim = dim
        self.clusters = clusters
        self.iterations = iterations
        self.seed = seed

    @property
    def footprint_bytes(self) -> int:
        # Point matrix plus the per-point label array written every
        # iteration (scikit-learn's ``labels_``).
        return self.n_points * (self.dim + 1) * 8

    def run(self, system: BaseSystem) -> KMeansResult:
        rng = np.random.default_rng(self.seed)
        data = PagedArray(system, self.n_points * self.dim, np.float64,
                          name="kmeans-points")
        # Populate with a genuine mixture so clustering has structure.
        true_centers = rng.normal(0.0, 10.0, size=(self.clusters, self.dim))
        for start, stop in data.chunks(CHUNK_POINTS * self.dim):
            rows = (stop - start) // self.dim
            assignment = rng.integers(0, self.clusters, size=rows)
            pts = true_centers[assignment] + rng.normal(0, 1, (rows, self.dim))
            data.store(start, pts.reshape(-1))

        # Farthest-point seeding over the first chunk: with well-separated
        # mixtures this lands one seed per cluster (k-means++ flavour).
        first = data.load(0, min(CHUNK_POINTS, self.n_points) * self.dim)
        rows = first.reshape(-1, self.dim)
        seeds = [int(rng.integers(len(rows)))]
        nearest = ((rows - rows[seeds[0]]) ** 2).sum(axis=1)
        while len(seeds) < self.clusters:
            candidate = int(nearest.argmax())
            seeds.append(candidate)
            nearest = np.minimum(
                nearest, ((rows - rows[candidate]) ** 2).sum(axis=1))
        centroids = rows[seeds].copy()
        labels = PagedArray(system, self.n_points, np.int64,
                            name="kmeans-labels")
        chunk_starts = list(range(0, self.n_points, CHUNK_POINTS))
        begin = system.clock.now
        inertia = 0.0
        for _iteration in range(self.iterations):
            sums = np.zeros((self.clusters, self.dim))
            counts = np.zeros(self.clusters, dtype=np.int64)
            inertia = 0.0
            # Shuffled chunk order: the irregular page access pattern that
            # makes k-means a reclamation stress test.
            rng.shuffle(chunk_starts)
            for start_point in chunk_starts:
                stop_point = min(start_point + CHUNK_POINTS, self.n_points)
                flat = data.load(start_point * self.dim, stop_point * self.dim)
                pts = flat.reshape(-1, self.dim)
                distances = ((pts[:, None, :] - centroids[None, :, :]) ** 2
                             ).sum(axis=2)
                system.cpu_cycles(len(pts) * self.clusters * self.dim
                                  * DISTANCE_CYCLES)
                best = distances.argmin(axis=1)
                labels.store(start_point, best.astype(np.int64))
                inertia += distances[np.arange(len(pts)), best].sum()
                np.add.at(sums, best, pts)
                np.add.at(counts, best, 1)
            nonempty = counts > 0
            centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        elapsed = system.clock.now - begin
        return KMeansResult(points=self.n_points, clusters=self.clusters,
                            iterations=self.iterations, inertia=float(inertia),
                            elapsed_us=elapsed, metrics=system.metrics())
