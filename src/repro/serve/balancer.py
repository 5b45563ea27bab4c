"""Load-balancing policies: route each admitted request to a tenant.

Balancers see the tenant names and, per request, the routing key plus
every tenant's outstanding queue depth (in virtual time). Three built-in
policies cover the classic serving trade-offs:

* ``round_robin`` — strict rotation; fair in request *count*, blind to
  queue depth, so one slow tenant drags the whole tail (the
  ``slow_tenant_isolation`` preset shows this).
* ``least`` — least-outstanding: join the shortest queue (stable
  tie-break by enrollment order). The standard fix for heterogeneous
  service times.
* ``hash`` — consistent hashing of the request's routing key over a
  sha256 ring with virtual nodes. Gives key affinity (all requests for a
  key land on one tenant — cache-friendly) at the cost of skew when the
  keyspace is hot (the ``hot_key_skew`` preset).

All policies are deterministic: same tenants, same request sequence,
same routing — the sha256 ring never depends on ``hash()`` randomization.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Callable, Dict, List, Sequence, Tuple


class Balancer:
    """Base router; subclasses override :meth:`pick`."""

    name = "balancer"

    def __init__(self, tenants: Sequence[str]) -> None:
        if not tenants:
            raise ValueError("balancer needs at least one tenant")
        if len(set(tenants)) != len(tenants):
            raise ValueError("duplicate tenant names")
        self.tenants = tuple(tenants)

    def pick(self, routing_key: bytes, depths: Sequence[int]) -> int:
        """Index (into the tenant tuple) to route this request to.

        ``depths[i]`` is tenant *i*'s outstanding queue depth at the
        arrival instant.
        """
        raise NotImplementedError


class RoundRobinBalancer(Balancer):
    """Strict rotation over the tenants, ignoring load and keys."""

    name = "round_robin"

    def __init__(self, tenants: Sequence[str]) -> None:
        super().__init__(tenants)
        self._next = 0

    def pick(self, routing_key: bytes, depths: Sequence[int]) -> int:
        index = self._next
        self._next = (self._next + 1) % len(self.tenants)
        return index


class LeastOutstandingBalancer(Balancer):
    """Join the shortest queue; ties break toward earlier enrollment."""

    name = "least"

    def pick(self, routing_key: bytes, depths: Sequence[int]) -> int:
        # index() finds the first occurrence: the earliest-enrolled tenant.
        return depths.index(min(depths))


class ConsistentHashBalancer(Balancer):
    """Consistent hashing with virtual nodes on a sha256 ring.

    Each tenant owns ``replicas`` points on a 64-bit ring; a request goes
    to the owner of the first point at or after the hash of its routing
    key. Adding/removing one tenant only remaps ~1/N of the keyspace —
    the property that makes the policy standard for cache tiers.
    """

    name = "hash"

    def __init__(self, tenants: Sequence[str], replicas: int = 64) -> None:
        super().__init__(tenants)
        if replicas <= 0:
            raise ValueError("replicas must be positive")
        points: List[Tuple[int, int]] = []
        for index, tenant in enumerate(self.tenants):
            for replica in range(replicas):
                token = f"{tenant}#{replica}".encode()
                points.append((self._point(token), index))
        points.sort()
        self._ring = [p for p, _ in points]
        self._owner = [i for _, i in points]

    @staticmethod
    def _point(data: bytes) -> int:
        return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")

    def pick(self, routing_key: bytes, depths: Sequence[int]) -> int:
        slot = bisect.bisect_left(self._ring, self._point(routing_key))
        if slot == len(self._ring):
            slot = 0
        return self._owner[slot]


BalancerFactory = Callable[[Sequence[str]], Balancer]

#: Balancer name -> factory over the tenant names.
BALANCERS: Dict[str, BalancerFactory] = {
    "round_robin": RoundRobinBalancer,
    "least": LeastOutstandingBalancer,
    "hash": ConsistentHashBalancer,
}


def make_balancer(name: str, tenants: Sequence[str]) -> Balancer:
    """Build the named balancer over ``tenants``."""
    try:
        factory = BALANCERS[name]
    except KeyError:
        raise ValueError(f"unknown balancer {name!r}; pick from "
                         f"{tuple(BALANCERS)}") from None
    return factory(tenants)


__all__ = [
    "BALANCERS",
    "Balancer",
    "ConsistentHashBalancer",
    "LeastOutstandingBalancer",
    "RoundRobinBalancer",
    "make_balancer",
]
