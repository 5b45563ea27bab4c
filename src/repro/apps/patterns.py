"""Synthetic access-pattern workloads for prefetcher characterization.

Each pattern walks the same far-memory region with the same per-access
compute charge; only the *order* differs. Sweeping the patterns against
the prefetchers produces a capability matrix: which policy predicts which
structure — the space the paper's §4.3 argument (general-purpose
prefetchers cover regular patterns; guides cover the rest) lives in.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.common.units import MIB, PAGE_SIZE
from repro.core.api import BaseSystem
from repro.obs.snapshot import MetricsSnapshot


def sequential(pages: int, rng: random.Random) -> List[int]:
    """Page 0, 1, 2, ... — readahead's home turf."""
    return list(range(pages))


def strided(pages: int, rng: random.Random, stride: int = 4) -> List[int]:
    """Every ``stride``-th page — trend/stride territory, readahead waste."""
    return [p for p in range(0, pages, stride)]


def reverse(pages: int, rng: random.Random) -> List[int]:
    """Backward scan — defeats forward-only readahead."""
    return list(range(pages - 1, -1, -1))


def interleaved(pages: int, rng: random.Random) -> List[int]:
    """Two forward streams from distant starts, alternating — the
    multi-stream case only the stride table handles."""
    half = pages // 2
    order: List[int] = []
    for i in range(half):
        order.append(i)
        order.append(half + i)
    return order


def uniform_random(pages: int, rng: random.Random) -> List[int]:
    """Uniformly random pages — nothing predicts this."""
    return [rng.randrange(pages) for _ in range(pages)]


def zipf_random(pages: int, rng: random.Random, skew: float = 1.1) -> List[int]:
    """Skewed random (hot set) — caching helps, prefetching doesn't."""
    weights = [1.0 / (rank ** skew) for rank in range(1, pages + 1)]
    return rng.choices(range(pages), weights=weights, k=pages)


PATTERNS: Dict[str, Callable[[int, random.Random], List[int]]] = {
    "sequential": sequential,
    "strided": strided,
    "reverse": reverse,
    "interleaved": interleaved,
    "random": uniform_random,
    "zipf": zipf_random,
}


@dataclass
class PatternResult:
    pattern: str
    accesses: int
    elapsed_us: float
    metrics: MetricsSnapshot

    @property
    def us_per_access(self) -> float:
        return self.elapsed_us / self.accesses


class PatternWorkload:
    """Walk a far-memory region in a named order."""

    def __init__(self, pattern: str, working_set_bytes: int = 8 * MIB,
                 compute_us_per_access: float = 0.4, seed: int = 13) -> None:
        if pattern not in PATTERNS:
            raise ValueError(
                f"unknown pattern {pattern!r}; pick from {sorted(PATTERNS)}")
        self.pattern = pattern
        self.working_set_bytes = working_set_bytes
        self.compute_us = compute_us_per_access
        self.seed = seed

    @property
    def footprint_bytes(self) -> int:
        return self.working_set_bytes

    def run(self, system: BaseSystem) -> PatternResult:
        region = system.mmap(self.working_set_bytes, name=self.pattern)
        pages = region.size // PAGE_SIZE
        for i in range(pages):
            system.memory.write(region.base + i * PAGE_SIZE,
                                i.to_bytes(4, "little") * 8)
        system.clock.advance(5000)  # start cold: populate spilled out
        order = PATTERNS[self.pattern](pages, random.Random(self.seed))
        begin = system.clock.now
        for page in order:
            got = system.memory.read(region.base + page * PAGE_SIZE, 32)
            if got != page.to_bytes(4, "little") * 8:
                raise AssertionError(f"page {page} corrupted")
            system.cpu(self.compute_us)
        return PatternResult(pattern=self.pattern, accesses=len(order),
                             elapsed_us=system.clock.now - begin,
                             metrics=system.metrics())
