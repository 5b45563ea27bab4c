"""The unified Workload/Service API every app serves through.

This module defines the one request/response surface the serving layer
(:mod:`repro.serve`) speaks, so a load balancer, an admission controller
or a latency recorder drives every app the same way:

* :class:`Request` / :class:`Response` — typed, frozen request envelopes.
  ``op`` selects the handler (``"get"``, ``"mean_fare"``); ``key`` is
  the routing key consistent-hash balancers use.
* :class:`Service` — the protocol: ``handle(request) -> Response``.
  Services that want to be driven by generic scenario presets also
  provide ``sample_request(rng) -> Request`` — a deterministic draw from
  the app's own key/op popularity distribution.
* :data:`SERVICES` — service kind -> ``"module:builder"``, a plain
  table like :data:`repro.core.spec.KERNELS`. :func:`build_service`
  imports the builder's module on first use, so a run imports only the
  apps it serves; the builder receives the booted system plus keyword
  parameters and returns a ready (pre-populated) service.

The apps' closed-loop drivers (``GetWorkload.drive`` and friends) are
thin loops over ``Service.handle``.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Dict, Tuple

try:  # Protocol is 3.8+; runtime_checkable keeps isinstance() working.
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - not reachable on supported pythons
    from typing_extensions import Protocol, runtime_checkable  # type: ignore


@dataclass(frozen=True)
class Request:
    """One request as the serving layer sees it.

    ``op`` names the service operation; ``key`` is the object addressed
    (and the consistent-hash routing key); ``value`` carries write
    payloads; ``args`` carries per-op extras (an LRANGE count, a query
    bound); ``client_id`` identifies the simulated client that issued it.
    """

    op: str
    key: bytes = b""
    value: bytes = b""
    args: Tuple[Any, ...] = ()
    client_id: int = 0

    def routing_key(self) -> bytes:
        """What key-affinity balancers hash: the key, or the op when the
        request addresses no object (analytics queries)."""
        return self.key if self.key else self.op.encode()


@dataclass(frozen=True)
class Response:
    """The service's answer: ``ok`` plus a value or an error string."""

    ok: bool = True
    value: Any = None
    error: str = ""

    @classmethod
    def fail(cls, error: str) -> "Response":
        return cls(ok=False, value=None, error=error)


@runtime_checkable
class Service(Protocol):
    """Anything the load balancer can drive: a named request handler."""

    name: str

    def handle(self, request: Request) -> Response:
        """Serve one request, charging simulated time as it goes."""
        ...  # pragma: no cover - protocol body


#: Service kind -> ``"module:builder"``; the builder takes the booted
#: system plus keyword parameters and returns a ready service.
SERVICES: Dict[str, str] = {
    "kv": "repro.apps.kvstore:build_kv_service",
    "llm": "repro.apps.llm:build_llm_service",
    "redis": "repro.apps.redis.service:build_redis_service",
    "taxi": "repro.apps.dataframe:build_taxi_service",
}


def build_service(kind: str, system: Any, **params: Any) -> Service:
    """Build a ready service of ``kind`` on ``system``, importing its
    module on first use."""
    try:
        module, _, builder = SERVICES[kind].partition(":")
    except KeyError:
        raise ValueError(f"unknown service kind {kind!r}; pick from "
                         f"{sorted(SERVICES)}") from None
    return getattr(importlib.import_module(module), builder)(system, **params)


__all__ = [
    "Request",
    "Response",
    "SERVICES",
    "Service",
    "build_service",
]
