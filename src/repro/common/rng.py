"""Deterministic randomness helpers for workload generators.

Every generator takes an explicit seed so experiments are reproducible
run-to-run; nothing in the package touches the global ``random`` state.
"""

from __future__ import annotations

import random
from typing import List


def make_rng(seed: int) -> random.Random:
    """A private ``random.Random`` stream for one workload component."""
    return random.Random(seed)


def zipf_weights(n: int, skew: float = 1.0) -> List[float]:
    """Unnormalized Zipf weights ``1/rank**skew`` for ranks ``1..n``."""
    if n <= 0:
        raise ValueError("n must be positive")
    return [1.0 / (rank ** skew) for rank in range(1, n + 1)]


def seeded_value(rng: random.Random, size: int) -> bytes:
    """A ``size``-byte value drawn from ``rng`` with a recognizable prefix.

    The first four bytes are the draw itself, the next (up to 60) a
    pattern derived from it, the rest ``0xA5`` padding. The KV and Redis
    services and the Redis workloads fill their keyspaces with it, so a
    checker replaying the same ``rng`` regenerates every value.
    """
    seed = rng.randrange(1 << 30)
    prefix = seed.to_bytes(4, "little")
    body = bytes(((seed >> (8 * (j % 4))) + j * 131) % 256
                 for j in range(min(size - 4, 60)))
    return (prefix + body).ljust(size, b"\xA5")[:size]
