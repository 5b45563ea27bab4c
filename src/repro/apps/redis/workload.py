"""redis-benchmark-shaped workload generators (§6.2, §6.3). The
``drive`` methods are closed-loop drivers over the Service protocol;
open-loop experiments drive the ``redis`` service through
:mod:`repro.serve` instead (see docs/SERVING.md).

* :class:`GetWorkload` — GET-dominated serving. Sizes are fixed (4 KiB /
  64 KiB) or the "mixed" Facebook photo-serving distribution: six equally
  likely sizes, 4 KiB through 128 KiB.
* :class:`LRangeWorkload` — the modified redis-benchmark of §6.2: many
  separate lists, LRANGE of the front elements.
* :class:`DelGetWorkload` — the §6.3 guided-paging scenario: populate
  small values, DEL ~70% at random (fragmenting pages), then GET the
  survivors; bandwidth is the metric.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.rng import seeded_value
from repro.common.stats import Histogram
from repro.apps.api import Request
from repro.apps.redis.server import RedisServer
from repro.apps.redis.service import RedisService
from repro.obs.snapshot import MetricsSnapshot

#: The Facebook photo-serving mix (§6.2): six equally distributed sizes.
PHOTO_MIX_SIZES = (4096, 8192, 16384, 32768, 65536, 131072)


@dataclass
class RequestStats:
    """Per-request latency + throughput summary of one run."""

    queries: int
    elapsed_us: float
    latencies: Histogram
    metrics: Optional[MetricsSnapshot] = None

    @property
    def requests_per_second(self) -> float:
        return self.queries / (self.elapsed_us / 1e6)


class GetWorkload:
    """Populate a keyspace, then issue random GETs."""

    def __init__(self, value_size="mixed", n_keys: int = 1500,
                 n_queries: int = 3000, seed: int = 21) -> None:
        if value_size != "mixed" and (not isinstance(value_size, int)
                                      or value_size <= 0):
            raise ValueError("value_size must be 'mixed' or a positive int")
        self.value_size = value_size
        self.n_keys = n_keys
        self.n_queries = n_queries
        self.seed = seed
        self._expected: Dict[bytes, bytes] = {}

    def _size_for(self, rng: random.Random) -> int:
        if self.value_size == "mixed":
            return rng.choice(PHOTO_MIX_SIZES)
        return self.value_size

    @property
    def footprint_bytes(self) -> int:
        if self.value_size == "mixed":
            average = sum(PHOTO_MIX_SIZES) / len(PHOTO_MIX_SIZES)
        else:
            average = self.value_size
        return int(self.n_keys * average)

    def populate(self, server: RedisServer) -> None:
        rng = random.Random(self.seed)
        for i in range(self.n_keys):
            key = b"key:%d" % i
            value = seeded_value(rng, self._size_for(rng))
            server.set(key, value)
            self._expected[key] = value[:16]

    def drive(self, server: RedisServer, verify: bool = True) -> RequestStats:
        """Closed-loop GET driver over the Service protocol.

        The request keys are sampled as one batch up front (the sampler
        touches only its own ``random.Random``, so the draw sequence is
        identical to sampling inline) and served in order.
        """
        service = RedisService(server)
        rng = random.Random(self.seed + 1)
        keys = [b"key:%d" % rng.randrange(self.n_keys)
                for _ in range(self.n_queries)]
        latencies = Histogram()
        clock = server.system.clock
        begin = clock.now
        for key in keys:
            t0 = clock.now
            response = service.handle(Request("get", key=key))
            latencies.record(clock.now - t0)
            if verify and (not response.ok
                           or response.value[:16] != self._expected[key]):
                raise AssertionError(f"GET {key!r} returned corrupted value")
        return RequestStats(queries=self.n_queries,
                            elapsed_us=clock.now - begin,
                            latencies=latencies,
                            metrics=server.system.metrics())


class LRangeWorkload:
    """Populate many lists, then LRANGE their fronts."""

    def __init__(self, n_lists: int = 400, elems_per_list: int = 64,
                 elem_bytes: int = 96, lrange_count: int = 48,
                 n_queries: int = 800, seed: int = 33) -> None:
        self.n_lists = n_lists
        self.elems_per_list = elems_per_list
        self.elem_bytes = elem_bytes
        self.lrange_count = lrange_count
        self.n_queries = n_queries
        self.seed = seed

    @property
    def footprint_bytes(self) -> int:
        return self.n_lists * self.elems_per_list * (self.elem_bytes + 2)

    def populate(self, server: RedisServer) -> None:
        rng = random.Random(self.seed)
        # Push in random list order so lists interleave in memory, as a
        # random population of a real keyspace would.
        pushes: List[int] = [i % self.n_lists
                             for i in range(self.n_lists * self.elems_per_list)]
        rng.shuffle(pushes)
        batch: Dict[int, List[bytes]] = {}
        for list_id in pushes:
            batch.setdefault(list_id, []).append(
                seeded_value(rng, self.elem_bytes))
            if len(batch[list_id]) == 8:
                server.rpush(b"list:%d" % list_id, batch.pop(list_id))
        for list_id, values in batch.items():
            server.rpush(b"list:%d" % list_id, values)

    def drive(self, server: RedisServer, verify: bool = True) -> RequestStats:
        """Closed-loop LRANGE driver; keys pre-sampled as one batch (the
        sampler touches only its own rng, so the sequence is identical)."""
        service = RedisService(server)
        rng = random.Random(self.seed + 1)
        keys = [b"list:%d" % rng.randrange(self.n_lists)
                for _ in range(self.n_queries)]
        latencies = Histogram()
        clock = server.system.clock
        begin = clock.now
        for key in keys:
            t0 = clock.now
            response = service.handle(
                Request("lrange", key=key, args=(self.lrange_count,)))
            values = response.value if response.ok else []
            latencies.record(clock.now - t0)
            if verify:
                if len(values) != min(self.lrange_count, self.elems_per_list):
                    raise AssertionError("LRANGE returned wrong count")
                if any(len(v) != self.elem_bytes for v in values):
                    raise AssertionError("LRANGE returned wrong sizes")
        return RequestStats(queries=self.n_queries,
                            elapsed_us=clock.now - begin,
                            latencies=latencies,
                            metrics=server.system.metrics())


class DelGetWorkload:
    """SET small values, DEL ~70%, GET survivors (Figure 12)."""

    def __init__(self, n_keys: int = 8000, value_bytes: int = 128,
                 del_fraction: float = 0.7, n_queries: int = 4000,
                 seed: int = 44) -> None:
        self.n_keys = n_keys
        self.value_bytes = value_bytes
        self.del_fraction = del_fraction
        self.n_queries = n_queries
        self.seed = seed
        self._survivors: List[bytes] = []

    @property
    def footprint_bytes(self) -> int:
        return self.n_keys * self.value_bytes

    def populate(self, server: RedisServer) -> None:
        rng = random.Random(self.seed)
        for i in range(self.n_keys):
            server.set(b"key:%d" % i, seeded_value(rng, self.value_bytes))

    def run_del_phase(self, server: RedisServer) -> None:
        rng = random.Random(self.seed + 1)
        self._survivors = []
        for i in range(self.n_keys):
            key = b"key:%d" % i
            if rng.random() < self.del_fraction:
                server.delete(key)
            else:
                self._survivors.append(key)

    def run_get_phase(self, server: RedisServer) -> RequestStats:
        rng = random.Random(self.seed + 2)
        latencies = Histogram()
        clock = server.system.clock
        begin = clock.now
        for _ in range(self.n_queries):
            key = self._survivors[rng.randrange(len(self._survivors))]
            t0 = clock.now
            value = server.get(key)
            latencies.record(clock.now - t0)
            if len(value) != self.value_bytes:
                raise AssertionError("GET returned wrong size after DELs")
        return RequestStats(queries=self.n_queries,
                            elapsed_us=clock.now - begin,
                            latencies=latencies,
                            metrics=server.system.metrics())
