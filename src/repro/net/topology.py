"""Rack topology: per-link bandwidth/queueing and ToR oversubscription.

The flat model charges every QP verb a fixed base latency plus per-byte
wire time on a private, uncontended link — fine for one compute node and
one memory node, wrong for a rack. Here the fabric is explicit:

* ``C`` compute nodes and ``M`` pooled memory nodes hang off one ToR.
* Compute node ``c`` has a **direct** (intra-chassis / CXL-style) link
  to its *home* memory node ``c % M`` that bypasses the ToR entirely.
* Every other compute↔memory pair crosses three links: the compute
  node's uplink, the ToR **trunk**, and the memory node's downlink.
  The trunk's capacity is the aggregate edge capacity divided by the
  oversubscription factor — at ``oversub=4`` the switch can sink only a
  quarter of what the edges can offer, the classic rack bottleneck.

Each :class:`Link` is a deterministic FIFO bandwidth server (the same
``busy_until`` serialization the QP wire model uses): a transfer waits
for the link to drain, then occupies it for ``size / bandwidth``. A
:class:`FabricPort` binds one compute node to the topology; QPs with a
port attached add the port's contention delay to every verb —
**queueing included** — so tail latency under an oversubscribed ToR is
an emergent property of which memory node the allocator picked, not a
constant. Only :class:`~repro.sim.rack.RackCluster` binds ports, one per
tenant; with no port attached (a spec's default ``topology=None``)
nothing in the timing path changes; the golden-master digests pin that.

Spec grammar (shared with ``backend=``, ``cluster.serve(spec)`` and
``repair=``, see :mod:`repro.common.specparse`)::

    "rack:compute=4,mem=4,link=100,oversub=4"

``link`` is the edge-link bandwidth in Gbit/s; ``oversub`` >= 1 divides
the trunk. Link counters surface as canonical ``topo.*`` metrics
(per-link bytes, queueing delay, busy time, plus aggregates).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.common.specparse import parse_kv_spec, split_kind
from repro.obs.registry import MetricsRegistry
from repro.obs.snapshot import MetricsSnapshot

#: Maps a remote-backend byte offset to the memory-node index holding
#: it (``PooledMemory.node_of``). ``None`` routes everything home.
OffsetResolver = Callable[[int], int]

#: Bytes per microsecond per Gbit/s (1 Gbit/s = 125 bytes/µs).
_BYTES_PER_US_PER_GBPS = 125.0


def _store_and_forward(path: Sequence["Link"], t: float,
                       size: int) -> float:
    """Push ``size`` bytes through ``path`` starting at ``t``, each link
    after the previous one delivered; returns the total delay."""
    delay = 0.0
    for link in path:
        delay += link.transmit(t + delay, size)
    return delay


class Link:
    """One duplex fabric link: a deterministic FIFO bandwidth server.

    A transfer arriving at ``t`` waits ``max(0, busy_until - t)`` for
    earlier transfers to drain, then holds the link for
    ``size * per_byte_us``. Totals (bytes, queueing, busy time) feed the
    ``topo.*`` gauges.
    """

    __slots__ = ("name", "gbps", "per_byte_us", "busy_until", "bytes",
                 "queue_us", "busy_us", "transfers")

    def __init__(self, name: str, gbps: float) -> None:
        if gbps <= 0:
            raise ValueError(f"link {name!r} bandwidth must be positive")
        self.name = name
        self.gbps = gbps
        self.per_byte_us = 1.0 / (_BYTES_PER_US_PER_GBPS * gbps)
        self.busy_until = 0.0
        self.bytes = 0
        self.queue_us = 0.0
        self.busy_us = 0.0
        self.transfers = 0

    def transmit(self, t: float, size: int) -> float:
        """Push ``size`` bytes through at time ``t``; returns the delay
        (queueing + serialization) this link contributed."""
        wait = self.busy_until - t
        if wait < 0.0:
            wait = 0.0
        serialize = size * self.per_byte_us
        self.busy_until = t + wait + serialize
        self.bytes += size
        self.queue_us += wait
        self.busy_us += serialize
        self.transfers += 1
        return wait + serialize

    def utilization(self, now_us: float) -> float:
        """Fraction of ``[0, now]`` this link spent serializing bytes."""
        return self.busy_us / now_us if now_us > 0 else 0.0

    def __repr__(self) -> str:
        return f"Link({self.name}, {self.gbps:g}Gbps)"


class RackTopology:
    """C compute + M pooled memory nodes on one oversubscribed ToR."""

    def __init__(self, compute: int = 2, mem: int = 2,
                 link_gbps: float = 100.0, oversub: float = 1.0) -> None:
        if compute < 1 or mem < 1:
            raise ValueError("need at least one compute and one memory node")
        if oversub < 1.0:
            raise ValueError("oversubscription factor must be >= 1")
        self.compute = compute
        self.mem = mem
        self.link_gbps = link_gbps
        self.oversub = oversub
        #: Aggregate edge capacity the trunk would need to be
        #: non-blocking, divided by the oversubscription factor.
        self.trunk_gbps = link_gbps * max(compute, mem) / oversub
        self.uplinks: List[Link] = [Link(f"c{c}_up", link_gbps)
                                    for c in range(compute)]
        self.downlinks: List[Link] = [Link(f"m{m}_down", link_gbps)
                                      for m in range(mem)]
        self.trunk = Link("trunk", self.trunk_gbps)
        #: Direct chassis link from each compute node to its home
        #: memory node — traffic here never touches the ToR.
        self.direct: List[Link] = [Link(f"c{c}m{c % mem}", link_gbps)
                                   for c in range(compute)]
        self.registry = MetricsRegistry()
        for link in self.links():
            self.registry.gauge(f"topo.{link.name}.bytes",
                                lambda l=link: float(l.bytes))
            self.registry.gauge(f"topo.{link.name}.queue_us",
                                lambda l=link: l.queue_us)
            self.registry.gauge(f"topo.{link.name}.busy_us",
                                lambda l=link: l.busy_us)
        self.registry.gauge("topo.bytes",
                            lambda: float(sum(l.bytes for l in self.links())))
        self.registry.gauge("topo.queue_us",
                            lambda: sum(l.queue_us for l in self.links()))
        self.registry.gauge("topo.trunk_queue_us",
                            lambda: self.trunk.queue_us)
        self.registry.gauge("topo.trunk_crossings",
                            lambda: float(self.trunk.transfers))

    # -- structure -----------------------------------------------------------

    def home(self, compute_id: int) -> int:
        """The memory node compute node ``compute_id`` is chassis-wired
        to (its zero-ToR-hop placement target)."""
        return compute_id % self.mem

    def links(self) -> List[Link]:
        """Every link, in a stable order (metric registration order)."""
        return self.uplinks + self.downlinks + [self.trunk] + self.direct

    def path(self, compute_id: int, mem_id: int) -> Sequence[Link]:
        """The links a transfer between ``compute_id`` and ``mem_id``
        crosses, in traversal order."""
        if not 0 <= compute_id < self.compute:
            raise ValueError(f"no compute node {compute_id}")
        if not 0 <= mem_id < self.mem:
            raise ValueError(f"no memory node {mem_id}")
        if mem_id == self.home(compute_id):
            return (self.direct[compute_id],)
        return (self.uplinks[compute_id], self.trunk,
                self.downlinks[mem_id])

    # -- charging ------------------------------------------------------------

    def transmit(self, compute_id: int, mem_id: int, t: float,
                 size: int) -> float:
        """Charge one transfer along the path; returns the total fabric
        delay (per-link queueing + serialization, store-and-forward)."""
        return _store_and_forward(self.path(compute_id, mem_id), t, size)

    def port(self, compute_id: int,
             resolver: Optional[OffsetResolver] = None) -> "FabricPort":
        """A :class:`FabricPort` binding ``compute_id`` to this fabric."""
        return FabricPort(self, compute_id, resolver=resolver)

    # -- observability -------------------------------------------------------

    def metrics(self) -> MetricsSnapshot:
        """This fabric's own ``topo.*`` snapshot."""
        return self.registry.snapshot(system=type(self).__name__)

    def link_report(self, now_us: float) -> Dict[str, Dict[str, float]]:
        """Per-link ``{bytes, queue_us, util}`` table for reports."""
        return {
            link.name: {
                "bytes": float(link.bytes),
                "queue_us": link.queue_us,
                "util": link.utilization(now_us),
            }
            for link in self.links()
        }

    def spec(self) -> str:
        """The round-trippable spec string for this topology."""
        return (f"rack:compute={self.compute},mem={self.mem},"
                f"link={self.link_gbps:g},oversub={self.oversub:g}")

    @classmethod
    def from_spec(cls, spec: str) -> "RackTopology":
        """Parse ``"rack:compute=4,mem=4,link=100,oversub=4"`` (the
        ``rack:`` prefix is optional when called directly)."""
        kind, args = split_kind(spec, default="rack")
        if kind != "rack":
            raise ValueError(f"unknown topology kind {kind!r}; a rack "
                             "topology spec reads 'rack:compute=N,mem=M,...'")
        casts = {"compute": int, "mem": int, "link": float,
                 "oversub": float}
        parsed = parse_kv_spec(args, casts, what="topology spec")
        return cls(compute=parsed.get("compute", 2),
                   mem=parsed.get("mem", 2),
                   link_gbps=parsed.get("link", 100.0),
                   oversub=parsed.get("oversub", 1.0))

    def __repr__(self) -> str:
        return (f"RackTopology(compute={self.compute}, mem={self.mem}, "
                f"link={self.link_gbps:g}Gbps, oversub={self.oversub:g})")


class FabricPort:
    """One compute node's attachment point to a :class:`RackTopology`.

    QPs holding a port charge every verb the fabric delay of the links
    between this compute node and the memory node owning the verb's
    target offset (``resolver``, typically ``PooledMemory.node_of``).
    Verbs without a resolvable offset (reliable-transport retries on
    backends without routing) are charged against the home link — the
    cheapest path, so the flat-model calibration is never *inflated* by
    guessing.
    """

    __slots__ = ("topology", "compute_id", "resolver", "_paths", "_home")

    def __init__(self, topology: RackTopology, compute_id: int,
                 resolver: Optional[OffsetResolver] = None) -> None:
        if not 0 <= compute_id < topology.compute:
            raise ValueError(f"no compute node {compute_id}")
        self.topology = topology
        self.compute_id = compute_id
        self.resolver = resolver
        #: This node's link path to each memory node, fixed at boot.
        self._paths = tuple(topology.path(compute_id, mem_id)
                            for mem_id in range(topology.mem))
        self._home = topology.home(compute_id)

    def charge(self, offset: Optional[int], size: int, t: float) -> float:
        """Fabric delay for ``size`` bytes toward ``offset`` at ``t``."""
        if offset is not None and self.resolver is not None:
            mem_id = self.resolver(offset)
            if not 0 <= mem_id < len(self._paths):
                raise ValueError(f"no memory node {mem_id}")
        else:
            mem_id = self._home
        return _store_and_forward(self._paths[mem_id], t, size)

    def __repr__(self) -> str:
        return f"FabricPort(c{self.compute_id} on {self.topology!r})"


__all__ = [
    "FabricPort",
    "Link",
    "OffsetResolver",
    "RackTopology",
]
