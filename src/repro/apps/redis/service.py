"""The Redis app behind the unified Service protocol.

:class:`RedisService` adapts a :class:`~repro.apps.redis.server.RedisServer`
to ``handle(Request) -> Response`` so the serving layer's balancer can
drive it like any other app. The handler table is a straight mapping onto
the server's commands — ``handle`` adds *no* simulated time of its own,
so a request costs the same whether the serving frontend or a
closed-loop driver (:class:`~repro.apps.redis.workload.GetWorkload` and
friends) issues it.

The ``"redis"`` service factory boots a ready instance: a mimalloc arena,
a deterministic keyspace population (seeded values with recognizable
prefixes), and a seeded Zipf key-popularity sampler so generic presets
can synthesize a GET-dominated request stream with tunable hot-key skew.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.alloc.mimalloc import Mimalloc
from repro.apps.api import Request, Response
from repro.apps.redis.server import RedisServer
from repro.common.rng import seeded_value, zipf_weights
from repro.common.units import MIB

#: The built service's mimalloc arena.
SERVICE_ARENA_BYTES = 16 * MIB
#: Seeds the built service's keyspace values.
SERVICE_SEED = 21


class RedisService:
    """One Redis instance as a uniform request-driven service."""

    name = "redis"

    def __init__(self, server: RedisServer, n_keys: int = 0,
                 value_bytes: int = 512, skew: float = 0.0,
                 write_fraction: float = 0.0) -> None:
        self.server = server
        self.n_keys = n_keys
        self.value_bytes = value_bytes
        self.write_fraction = write_fraction
        self._weights = (zipf_weights(n_keys, skew)
                         if n_keys and skew > 0.0 else None)
        self._handlers = {
            "get": self._get,
            "set": self._set,
            "lrange": self._lrange,
        }

    # -- the Service protocol ------------------------------------------------

    def handle(self, request: Request) -> Response:
        handler = self._handlers.get(request.op)
        if handler is None:
            return Response.fail(f"unknown op {request.op!r}; "
                                 f"have {sorted(self._handlers)}")
        try:
            return handler(request)
        except (TypeError, ValueError, KeyError) as exc:
            return Response.fail(str(exc))

    def sample_request(self, rng: random.Random) -> Request:
        """A seeded draw from the service's key/op popularity model:
        GET-dominated (``write_fraction`` of SETs), keys Zipf-skewed when
        the service was built with ``skew > 0``."""
        if not self.n_keys:
            raise ValueError("sample_request needs a populated keyspace "
                             "(build the service with n_keys > 0)")
        if self._weights is not None:
            index = rng.choices(range(self.n_keys),
                                weights=self._weights, k=1)[0]
        else:
            index = rng.randrange(self.n_keys)
        key = b"key:%d" % index
        if self.write_fraction > 0.0 and rng.random() < self.write_fraction:
            return Request("set", key=key,
                           value=seeded_value(rng, self.value_bytes))
        return Request("get", key=key)

    # -- handlers ------------------------------------------------------------

    def _get(self, request: Request) -> Response:
        value = self.server.get(request.key)
        if value is None:
            return Response.fail(f"no such key {request.key!r}")
        return Response(value=value)

    def _set(self, request: Request) -> Response:
        self.server.set(request.key, request.value)
        return Response()

    def _lrange(self, request: Request) -> Response:
        count = request.args[0] if request.args else 10
        return Response(value=self.server.lrange(request.key, count))


def build_redis_service(system, n_keys: int = 200, value_bytes: int = 512,
                        skew: float = 0.0,
                        write_fraction: float = 0.0) -> RedisService:
    """Boot + populate one Redis service on ``system``.

    Population is deterministic in :data:`SERVICE_SEED`: ``n_keys``
    string keys of ``value_bytes`` each, SET through a
    :data:`SERVICE_ARENA_BYTES` mimalloc arena so the values land in far
    memory like any real keyspace.
    """
    server = RedisServer(system, Mimalloc(system,
                                          arena_bytes=SERVICE_ARENA_BYTES))
    rng = random.Random(SERVICE_SEED)
    expected: Dict[bytes, bytes] = {}
    for i in range(n_keys):
        key = b"key:%d" % i
        value = seeded_value(rng, value_bytes)
        server.set(key, value)
        expected[key] = value[:16]
    service = RedisService(server, n_keys=n_keys, value_bytes=value_bytes,
                           skew=skew, write_fraction=write_fraction)
    service.expected = expected  # verification aid for tests/presets
    return service


__all__ = ["RedisService", "build_redis_service"]
