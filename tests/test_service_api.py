"""The unified Workload/Service API: protocol conformance, the service
table, and the closed-loop drivers built on it."""

from __future__ import annotations

import random

import pytest

from repro.alloc import Mimalloc
from repro.apps.api import (
    Request,
    Response,
    SERVICES,
    Service,
    build_service,
)
from repro.apps.redis import GetWorkload, RedisServer
from repro.apps.redis.service import RedisService
from repro.common.units import MIB
from repro.harness import local_bytes_for, make_system


def _redis_system(footprint: int = 2 * MIB):
    return make_system("dilos-readahead", local_bytes_for(footprint, 0.5))


# -- envelopes ---------------------------------------------------------------

class TestEnvelopes:
    def test_request_is_frozen_and_routes_by_key(self):
        request = Request("get", key=b"k:1", client_id=7)
        assert request.routing_key() == b"k:1"
        with pytest.raises(AttributeError):
            request.op = "set"

    def test_keyless_request_routes_by_op(self):
        assert Request("mean", args=(0, 10)).routing_key() == b"mean"

    def test_response_fail(self):
        response = Response.fail("no such key")
        assert not response.ok
        assert response.value is None
        assert response.error == "no such key"


# -- protocol conformance ----------------------------------------------------

class TestConformance:
    def test_redis_service_conforms(self):
        service = build_service("redis", _redis_system(), n_keys=40,
                                value_bytes=256)
        assert isinstance(service, Service)
        assert service.name == "redis"
        rng = random.Random(3)
        request = service.sample_request(rng)
        response = service.handle(request)
        assert response.ok

    def test_redis_get_set_round_trip(self):
        service = build_service("redis", _redis_system(), n_keys=40,
                                value_bytes=256)
        assert service.handle(
            Request("set", key=b"fresh", value=b"payload")).ok
        got = service.handle(Request("get", key=b"fresh"))
        assert got.ok and got.value == b"payload"
        missing = service.handle(Request("get", key=b"nope"))
        assert not missing.ok

    def test_redis_rejects_unknown_op(self):
        service = build_service("redis", _redis_system(), n_keys=10,
                                value_bytes=64)
        response = service.handle(Request("flushall"))
        assert not response.ok
        assert "flushall" in response.error


# -- the service table -------------------------------------------------------

class TestRegistry:
    def test_builtins_resolve_lazily(self):
        """Every entry names a builder its module defines."""
        import importlib

        assert set(SERVICES) == {"kv", "llm", "redis"}
        for target in SERVICES.values():
            module, _, builder = target.partition(":")
            assert callable(getattr(importlib.import_module(module),
                                    builder))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown service kind"):
            build_service("memcached", None)


# -- the closed-loop driver the deprecated aliases wrapped ------------------

class TestDeprecatedAliases:
    def test_alias_equals_direct_service_path(self):
        # The closed-loop driver the removed ``GetWorkload.run`` alias
        # wrapped must stay byte-identical to driving the Service
        # protocol by hand: same seeds, same request sequence, same final
        # metrics digest.
        def run_driver():
            workload = GetWorkload(value_size=1024, n_keys=60,
                                   n_queries=120)
            system = _redis_system(workload.footprint_bytes)
            server = RedisServer(system, Mimalloc(system, 8 * MIB))
            workload.populate(server)
            stats = workload.drive(server, verify=True)
            assert stats.queries == stats.latencies.count == 120
            return system.metrics().digest()

        def run_direct():
            workload = GetWorkload(value_size=1024, n_keys=60,
                                   n_queries=120)
            system = _redis_system(workload.footprint_bytes)
            server = RedisServer(system, Mimalloc(system, 8 * MIB))
            workload.populate(server)
            service = RedisService(server)
            rng = random.Random(workload.seed + 1)
            for _ in range(workload.n_queries):
                key = b"key:%d" % rng.randrange(workload.n_keys)
                assert service.handle(Request("get", key=key)).ok
            return system.metrics().digest()

        assert run_driver() == run_direct()
