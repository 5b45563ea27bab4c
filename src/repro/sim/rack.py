"""Rack-scale tenancy: hundreds of tenants on a pooled, contended fabric.

:class:`~repro.sim.tenancy.ComputeCluster` interleaves tenants on one
shared backend but leaves *where* pages land and *what the wire costs*
implicit — every tenant sees the same flat fabric. :class:`RackCluster`
closes the loop between the three rack-scale layers this package grew:

* a :class:`~repro.net.topology.RackTopology` (per-link bandwidth, ToR
  oversubscription) every tenant's QP verbs are charged against;
* a :class:`~repro.mem.pool.PooledMemory` the tenants draw slots from
  through per-tenant :class:`~repro.mem.pool.PoolClient` views, so the
  placement policy — not a fixed address map — decides which links each
  page's traffic crosses;
* the open-loop serving frontend, whose p99 now depends on both.

Each enrolled tenant becomes one *compute node*: it gets a fabric port
bound to its compute id (routed by ``PooledMemory.node_of``) and a pool
client homed on the topology's home memory node for that id. The merged
cluster snapshot carries the canonical ``topo.*`` (link bytes, queueing
delay, trunk crossings) and ``pool.*`` (spills, stranding,
fragmentation imbalance) metrics alongside the usual ``tenant.*`` and
``serve.*`` families, and digests deterministically like every other
snapshot.

:func:`make_rack` builds the standard preset — N redis service tenants
striped round-robin across the compute nodes, served with
:data:`DEFAULT_RACK_SERVE` — and scales to hundreds of tenants.
:func:`run_rack_cell` is the module-level (picklable) worker behind
``repro sweep rack --jobs``: one placement-policy × oversubscription
cell per call, byte-identical whether run serially or fanned out.

The locality-vs-load tradeoff the sweep reproduces: ``locality``
placement keeps traffic on direct chassis links — immune to ToR
oversubscription but stranding free capacity on other nodes — while
``load`` placement balances occupancy at the price of crossing the
(possibly oversubscribed) trunk, where queueing delay lands straight in
the serving tail.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Union

from repro.common.units import KIB, MIB, PAGE_SIZE, align_up
from repro.core.spec import SystemSpec
from repro.mem.pool import PooledMemory
from repro.mem.remote import MemoryNode
from repro.net.topology import RackTopology
from repro.obs import MetricsSnapshot
from repro.sim.tenancy import ComputeCluster, Tenant, WorkloadFactory

#: The default rack preset fabric: 4 compute nodes, 4 pooled memory
#: nodes, 100 Gbit/s edge links, non-blocking trunk.
DEFAULT_RACK = "rack:compute=4,mem=4,link=100,oversub=1"

#: The default open-loop serve spec for :func:`make_rack` presets
#: (``cluster.serve(DEFAULT_RACK_SERVE)``).
DEFAULT_RACK_SERVE = ("poisson:rate=400k,clients=1m,slo=2ms,"
                      "requests=2000,seed=29,balance=round_robin")


class RackCluster(ComputeCluster):
    """A :class:`ComputeCluster` whose tenants live on an explicit rack.

    Args:
        topology: the fabric — a ``"rack:..."`` spec string or a ready
            :class:`~repro.net.topology.RackTopology`. (``"flat"`` is
            rejected: a flat cluster is just :class:`ComputeCluster`.)
        placement: pool placement policy name (``"locality"``,
            ``"load"``, ``"pack"``, ``"interleave"``) or a ready
            :class:`~repro.mem.pool.PlacementPolicy`.
        remote_mem_bytes: total pooled capacity, split equally over the
            topology's memory nodes.
    """

    def __init__(self, topology: Union[str, RackTopology] = DEFAULT_RACK,
                 placement: Any = "locality",
                 remote_mem_bytes: int = 512 * MIB) -> None:
        topo = (topology if isinstance(topology, RackTopology)
                else RackTopology.from_spec(topology))
        node_bytes = align_up(max(1, -(-remote_mem_bytes // topo.mem)),
                              PAGE_SIZE)
        pool = PooledMemory(
            [MemoryNode(node_bytes, name=f"pool{m}")
             for m in range(topo.mem)],
            policy=placement)
        # The pool backs the cluster's backend.* gauges and merged pool.*
        # metrics; tenants reach it only through their own PoolClient.
        super().__init__(backend=pool, remote_mem_bytes=remote_mem_bytes)
        self.topology = topo
        self.pool = pool
        self._next_compute = 0

    # -- enrollment ----------------------------------------------------------

    def add_tenant(self, name: str, spec: SystemSpec,
                   workload: WorkloadFactory,
                   compute_id: Optional[int] = None) -> Tenant:
        """Enroll ``spec`` as one compute node of the rack.

        The tenant's backend becomes a pool client homed on the
        topology's home memory node for its compute id, and its QPs are
        charged through a fabric port bound to that id (round-robin over
        compute nodes when ``compute_id`` is not given). A rejected
        tenant leaves no client in the pool and does not move the
        round-robin.
        """
        self._check_enrollment(name)
        cid = self._next_compute if compute_id is None else compute_id
        if not 0 <= cid < self.topology.compute:
            raise ValueError(f"no compute node {cid} in {self.topology!r}")
        client = self.pool.client(name, home=self.topology.home(cid))
        port = self.topology.port(cid, resolver=self.pool.node_of)
        try:
            tenant = self._enroll(name, replace(
                spec, clock=self.clock, backend=client, topology=port),
                workload)
        except BaseException:
            self.pool.release_client(name)
            raise
        if compute_id is None:
            self._next_compute = (cid + 1) % self.topology.compute
        tenant.extra["compute_id"] = cid
        return tenant

    # -- merged observability ------------------------------------------------

    def metrics(self) -> MetricsSnapshot:
        """The cluster snapshot plus the fabric's ``topo.*`` family.

        (The pool's ``pool.*`` family arrives through the backend's own
        registry, like any cluster backend's metrics.)
        """
        merged = super().metrics()
        for key, value in self.topology.metrics().counters.items():
            merged.counters.setdefault(key, value)
        merged.extra["topology"] = self.topology.spec()
        merged.extra["placement"] = self.pool.policy.name
        return merged

    def link_report(self) -> Dict[str, Dict[str, float]]:
        """Per-link ``{bytes, queue_us, util}`` at the current time."""
        return self.topology.link_report(self.clock.now)


# -- the standard preset -----------------------------------------------------

#: The preset's per-tenant local cache, pooled capacity and value size.
RACK_LOCAL_BYTES = 192 * KIB
RACK_REMOTE_BYTES = 256 * MIB
RACK_VALUE_BYTES = 4096


def make_rack(tenants: int = 8,
              topology: Union[str, RackTopology] = DEFAULT_RACK,
              placement: Any = "locality",
              kind: str = "dilos-readahead",
              n_keys: int = 64) -> RackCluster:
    """The rack serving preset: N redis tenants striped over the rack.

    Tenant ``t<i>`` lands on compute node ``i % compute`` (so homes
    repeat once tenants outnumber compute nodes); each keeps a small
    local cache so its keyspace lives in the pool and every request
    pays fabric traffic. Scales to hundreds of tenants — per-tenant
    state is one small booted kernel plus ``n_keys`` values. Serve it
    with ``cluster.serve(DEFAULT_RACK_SERVE)`` or any other spec.
    """
    if tenants < 1:
        raise ValueError("need at least one tenant")
    cluster = RackCluster(topology=topology, placement=placement,
                          remote_mem_bytes=RACK_REMOTE_BYTES)
    spec = SystemSpec(kind=kind, local_mem_bytes=RACK_LOCAL_BYTES,
                      remote_mem_bytes=RACK_REMOTE_BYTES)
    for i in range(tenants):
        cluster.add_service(f"t{i}", spec, "redis",
                            n_keys=n_keys, value_bytes=RACK_VALUE_BYTES)
    return cluster


# -- the sweep cell ----------------------------------------------------------

def run_rack_cell(cell: Dict[str, Any]) -> Dict[str, Any]:
    """One placement × oversubscription cell of ``repro sweep rack``.

    Module-level and pure in its ``cell`` dict, so ``--jobs`` can ship
    it to pool workers; raises only ``Exception`` subclasses (a
    ``BaseException`` would kill the worker and hang the map). Returns
    a flat row: serving tail, SLO accounting, and the ``topo.*`` /
    ``pool.*`` placement-outcome metrics plus both determinism digests.
    """
    placement = cell["placement"]
    oversub = cell["oversub"]
    topology = (f"rack:compute={cell.get('compute', 4)},"
                f"mem={cell.get('mem', 4)},"
                f"link={cell.get('link', 100)},oversub={oversub:g}")
    cluster = make_rack(tenants=cell.get("tenants", 8),
                        topology=topology, placement=placement,
                        kind=cell.get("kind", "dilos-readahead"),
                        n_keys=cell.get("n_keys", 64))
    report = cluster.serve(cell.get("serve") or DEFAULT_RACK_SERVE)
    snap = report.snapshot
    return {
        "placement": placement,
        "oversub": float(oversub),
        "p50_us": report.latency.get("p50", 0.0),
        "p99_us": report.latency.get("p99", 0.0),
        "violation_rate": report.violation_rate,
        "goodput_rps": report.goodput_rps,
        "trunk_crossings": snap.value("topo.trunk_crossings"),
        "trunk_queue_us": snap.value("topo.trunk_queue_us"),
        "fabric_queue_us": snap.value("topo.queue_us"),
        "pool_spills": snap.value("pool.spills"),
        "stranded_slots": snap.value("pool.stranded_slots"),
        "frag_imbalance": snap.value("pool.frag_imbalance"),
        "trace_digest": report.trace_digest,
        "metrics_digest": snap.digest(),
    }


def sweep_rack(placements: List[str], oversubs: List[float],
               jobs: Optional[int] = None,
               **fixed: Any) -> List[Dict[str, Any]]:
    """The placement × oversubscription grid, optionally fanned out.

    Rows come back in grid order (placements outer, oversubs inner)
    regardless of ``jobs`` — a parallel run is byte-identical to the
    serial one, which the rack smoke gate asserts.
    """
    from repro.harness.parallel import fanout

    cells = [dict(fixed, placement=p, oversub=o)
             for p in placements for o in oversubs]
    return fanout(run_rack_cell, cells, jobs=jobs)


__all__ = [
    "DEFAULT_RACK",
    "DEFAULT_RACK_SERVE",
    "RackCluster",
    "make_rack",
    "run_rack_cell",
    "sweep_rack",
]
