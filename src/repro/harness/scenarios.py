"""The scenario registry: every named, reproducible run in one dict.

:data:`SCENARIOS` maps a name to a :class:`Scenario` — a builder plus the
arguments that pin it — and every consumer reads it:

* the golden-master suite (``tests/test_golden_master.py``) pins every
  scenario's metrics digest and final simulated clock by name;
* the paper's figure grids (:mod:`repro.harness.figures`) sweep the
  single-system builders over systems and local-memory ratios;
* ``python -m repro run <name>`` builds any entry, with its
  ``--system``, ``--backend``, ``--spec`` and ``--net-faults`` flags as
  overrides.

A builder boots fresh systems, runs to completion and returns a
:class:`Run`. Everything is deterministic: seeded RNGs, fixed sizes,
insertion-order scheduling — the same scenario always reaches the same
metrics digest.

Tenancy workload factories follow the :mod:`repro.sim.tenancy`
convention: given the booted system they return a generator, and every
``next()`` performs one operation against far memory (populate a chunk,
answer a GET, scan a stripe), advancing the shared clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Tuple

from repro.common.units import KIB, MIB, PAGE_SIZE
from repro.core.spec import BackendSpec, SystemSpec, make_backend
from repro.harness.experiment import APP_AWARE, local_bytes_for, make_system
from repro.mem.cluster import ParityStripedMemory, ReplicatedMemory
from repro.mem.repair import RepairManager
from repro.sim.tenancy import ComputeCluster, WorkloadFactory


@dataclass
class Run:
    """What one scenario leaves behind."""

    #: The booted system or cluster, after the run.
    target: Any
    #: The run's own report: the workload's result (a single-system
    #: builder), a :class:`~repro.serve.ServeReport`, a tenancy run's
    #: per-tenant summary, or the repair demo's phase facts.
    report: Any = None

    @property
    def sim_us(self) -> float:
        """Final simulated clock."""
        return self.target.clock.now

    def digest(self) -> str:
        """SHA-256 of the target's full metrics snapshot."""
        return self.target.metrics().digest()


@dataclass(frozen=True)
class Scenario:
    """One registry entry: a builder plus the arguments that pin it."""

    description: str
    builder: Callable[..., Run]
    params: Mapping[str, Any] = field(default_factory=dict)
    #: ``(label, ServeSpec overrides)`` of the naive run a serve preset
    #: argues against (no admission, load-blind routing).
    contrast: Optional[Tuple[str, Mapping[str, Any]]] = None

    def build(self, naive: bool = False, **overrides: Any) -> Run:
        """Run the scenario on fresh systems.

        ``overrides`` replace pinned arguments (``None`` keeps the pinned
        value); ``naive=True`` applies a serve preset's contrast on top
        of whatever serve spec the run resolves to.
        """
        params = dict(self.params)
        params.update((key, value) for key, value in overrides.items()
                      if value is not None)
        if naive:
            params["contrast"] = self.contrast[1]
        return self.builder(**params)


# -- tenant workload factories ----------------------------------------------

def kmeans_tenant(n_points: int = 32768, dims: int = 4, iters: int = 2,
                  k: int = 4, seed: int = 11,
                  chunk_points: int = 512) -> WorkloadFactory:
    """A k-means style tenant: populate a far-memory point set, then run
    Lloyd iterations as chunked scans (one op per chunk)."""

    def factory(system) -> Iterator[str]:
        import numpy as np

        from repro.apps.views import PagedArray

        def gen() -> Iterator[str]:
            rng = np.random.default_rng(seed)
            points = PagedArray(system, n_points * dims, dtype=np.float64,
                                name="kmeans.points")
            centers = rng.standard_normal((k, dims))
            for start, stop in points.chunks(chunk_points * dims):
                points.store(start, rng.standard_normal(stop - start))
                yield "populate"
            for _ in range(iters):
                sums = np.zeros((k, dims))
                counts = np.zeros(k)
                for start, stop in points.chunks(chunk_points * dims):
                    chunk = points.load(start, stop).reshape(-1, dims)
                    dist2 = ((chunk[:, None, :] - centers[None, :, :]) ** 2
                             ).sum(axis=2)
                    assign = dist2.argmin(axis=1)
                    for centroid in range(k):
                        mask = assign == centroid
                        sums[centroid] += chunk[mask].sum(axis=0)
                        counts[centroid] += int(mask.sum())
                    yield "assign"
                nonzero = counts > 0
                centers[nonzero] = sums[nonzero] / counts[nonzero, None]
                yield "update"
        return gen()
    return factory


def redis_get_tenant(n_keys: int = 600, value_bytes: int = 768,
                     n_queries: int = 1200, seed: int = 21,
                     arena_bytes: int = 4 * MIB) -> WorkloadFactory:
    """A redis tenant: SET a keyspace through the mimalloc arena, then
    issue random verified GETs (one op per request)."""

    def factory(system) -> Iterator[str]:
        from repro.alloc.mimalloc import Mimalloc
        from repro.apps.redis.server import RedisServer

        def gen() -> Iterator[str]:
            server = RedisServer(system, Mimalloc(system, arena_bytes))
            rng = random.Random(seed)
            expected: Dict[bytes, bytes] = {}
            for i in range(n_keys):
                key = b"key:%d" % i
                value = bytes(rng.getrandbits(8) for _ in range(value_bytes))
                server.set(key, value)
                expected[key] = value[:8]
                yield "set"
            qrng = random.Random(seed + 1)
            for _ in range(n_queries):
                key = b"key:%d" % qrng.randrange(n_keys)
                value = server.get(key)
                if value is None or value[:8] != expected[key]:
                    raise AssertionError(
                        f"GET {key!r} returned corrupted value")
                yield "get"
        return gen()
    return factory


def seqread_tenant(nbytes: int = 4 * MIB, passes: int = 2,
                   chunk_bytes: int = 64 * KIB) -> WorkloadFactory:
    """A streaming tenant: fill a buffer, then re-read it sequentially
    (one op per chunk) — steady backend pressure for co-tenants."""

    def factory(system) -> Iterator[str]:
        from repro.apps.views import PagedBytes

        def gen() -> Iterator[str]:
            buf = PagedBytes(system, nbytes, name="seqread.buf")
            for start, stop in buf.chunks(chunk_bytes):
                pattern = bytes((start // chunk_bytes + j) & 0xFF
                                for j in range(min(64, stop - start)))
                buf.write(start, pattern)
                yield "fill"
            for _ in range(passes):
                for start, stop in buf.chunks(chunk_bytes):
                    buf.read(start, stop - start)
                    yield "scan"
        return gen()
    return factory


# -- single-system builders --------------------------------------------------
#
# The one place each paper workload is booted and run: the registry, the
# figures (:mod:`repro.harness.figures`), the CLI and the benchmarks call
# these. Each boots a fresh ``kind`` sized at ``ratio`` of the workload's
# footprint, passing ``boot`` (``backend``, ``net_faults``, ``obs``,
# config overrides) to ``make_system``, runs the workload once and
# reports its result. Imports are local so importing the registry stays
# cheap.

_DILOS = "dilos-readahead"


def _boot(kind: str, footprint: int, ratio: float, **boot: Any):
    return make_system(kind, local_bytes_for(footprint, ratio), **boot)


def _paging_only(kind: str, workload: str) -> None:
    if kind.startswith("aifm"):
        raise ValueError(f"{workload} has no AIFM port (only snappy, "
                         "dataframe and llm do)")


def seqrw(kind: str, ratio: float, mib: int, mode: str = "read",
          **boot: Any) -> Run:
    """One sequential pass over ``mib`` MiB; read mode verifies every
    byte."""
    from repro.apps.seqrw import SequentialWorkload

    _paging_only(kind, "seqrw")
    workload = SequentialWorkload(mib * MIB)
    system = _boot(kind, workload.footprint_bytes, ratio, **boot)
    return Run(system, workload.run(system, mode, verify=(mode == "read")))


def remarray_scan(count: int, ratio: float = 0.25, item: int = 128) -> Run:
    """AIFM remoteable-array populate + verified scan (evacuation active
    under heap pressure)."""
    from repro.baselines.aifm import RemArray

    system = make_system("aifm-rdma", local_bytes_for(count * item, ratio))
    array = RemArray(system, count, item)
    for i in range(count):
        array.set(i, (i & 0xFF).to_bytes(1, "little") * item)
    for i, data in enumerate(array.scan()):
        if data[0] != (i & 0xFF):
            raise AssertionError(f"item {i} corrupted")
    return Run(system)


def quicksort(kind: str, ratio: float, count: int, **boot: Any) -> Run:
    """Verified quicksort of ``count`` u64s."""
    from repro.apps.quicksort import QuicksortWorkload

    _paging_only(kind, "quicksort")
    workload = QuicksortWorkload(count=count)
    system = _boot(kind, workload.footprint_bytes, ratio, **boot)
    return Run(system, workload.run(system, verify=True))


def redis(kind: str, ratio: float, n_keys: int, n_queries: int,
          value_size: Any = "mixed", remote_mib: int = 512,
          arena_mib: int = 256, lrange: bool = False, **boot: Any) -> Run:
    """Populate a Redis keyspace, idle 5 ms, then serve verified GETs
    closed-loop (``lrange=True``: LRANGEs over ``n_keys`` lists). Kind
    ``"dilos-app-aware"`` adds the quicklist prefetch guide to DiLOS
    readahead."""
    from repro.alloc import Mimalloc
    from repro.apps.redis import (GetWorkload, LRangeWorkload,
                                  RedisPrefetchGuide, RedisServer)

    _paging_only(kind, "redis")
    guide = None
    if kind == APP_AWARE:
        kind, guide = _DILOS, RedisPrefetchGuide()
    workload: Any = (
        LRangeWorkload(n_lists=n_keys, n_queries=n_queries) if lrange
        else GetWorkload(value_size=value_size, n_keys=n_keys,
                         n_queries=n_queries))
    system = _boot(kind, workload.footprint_bytes, ratio,
                   remote_bytes=remote_mib * MIB, **boot)
    server = RedisServer(system, Mimalloc(system, arena_bytes=arena_mib * MIB),
                         guide=guide)
    workload.populate(server)
    system.clock.advance(5000)
    return Run(system, workload.drive(server, verify=True))


def kmeans(kind: str, ratio: float, n_points: int, clusters: int,
           iterations: int, **boot: Any) -> Run:
    """Chunked Lloyd's k-means over far-memory points."""
    from repro.apps.kmeans import KMeansWorkload

    _paging_only(kind, "kmeans")
    workload = KMeansWorkload(n_points=n_points, clusters=clusters,
                              iterations=iterations)
    system = _boot(kind, workload.footprint_bytes, ratio, **boot)
    return Run(system, workload.run(system))


def snappy(kind: str, ratio: float, mode: str, n_files: int,
           file_bytes: int, **boot: Any) -> Run:
    """Compress or decompress ``n_files`` far-memory files, verified;
    AIFM kinds run the remoteable-object port."""
    from repro.apps.snappy import SnappyWorkload

    workload = SnappyWorkload(n_files=n_files, file_bytes=file_bytes)
    run = {"compress": (workload.run_compress, workload.run_compress_aifm),
           "decompress": (workload.run_decompress,
                          workload.run_decompress_aifm),
           }[mode][kind.startswith("aifm")]
    system = _boot(kind, workload.footprint_bytes, ratio, **boot)
    return Run(system, run(system, verify=True))


def dataframe(kind: str, ratio: float, rows: int, **boot: Any) -> Run:
    """The taxi analytics query mix over far-memory columns; AIFM kinds
    run the remoteable-array port."""
    from repro.apps.dataframe import TaxiAnalyticsWorkload

    workload = TaxiAnalyticsWorkload(rows=rows)
    system = _boot(kind, workload.footprint_bytes, ratio, **boot)
    return Run(system, workload.run_aifm(system) if kind.startswith("aifm")
               else workload.run(system))


def gapbs(kind: str, ratio: float, algorithm: str, nodes: int, edges: int,
          **boot: Any) -> Run:
    """Three PageRank iterations (``algorithm="pagerank"``) or BC from
    two sources (``"bc"``) over a seeded power-law graph in far-memory
    CSR. Kind ``"dilos-app-aware"`` runs BC with its frontier guide on
    DiLOS readahead."""
    from repro.apps.gapbs import (BcFrontierGuide, BetweennessWorkload,
                                  CsrGraph, PageRankWorkload,
                                  generate_power_law_graph)

    _paging_only(kind, "GAPBS")
    if algorithm not in ("pagerank", "bc"):
        raise ValueError(f"unknown GAPBS algorithm {algorithm!r}")
    guided = kind == APP_AWARE
    if guided and algorithm != "bc":
        raise ValueError("only BC has an app-aware guide")
    offsets, targets = generate_power_law_graph(n=nodes, target_m=edges)
    system = _boot(_DILOS if guided else kind,
                   (len(offsets) + len(targets)) * 8, ratio, **boot)
    graph = CsrGraph(system, offsets, targets)
    if algorithm == "pagerank":
        return Run(system, PageRankWorkload(iterations=3).run(system, graph))
    guide = BcFrontierGuide(graph) if guided else None
    if guide is not None:
        guide.bind(system)
    return Run(system, BetweennessWorkload(n_sources=2).run(
        system, graph, guide=guide))


def llm(kind: str, ratio: float = 0.25, backend: BackendSpec = "node",
        config: Optional[Mapping[str, Any]] = None, net_faults: Any = None,
        **workload: Any) -> Run:
    """LLM inference with the KV cache paged over far memory; AIFM kinds
    run the same driver over remoteable objects.

    ``config`` holds :class:`~repro.apps.llm.LlmConfig` fields and
    ``backend`` and ``net_faults`` go to ``make_system``; the remaining
    keywords are :class:`~repro.apps.llm.LlmWorkload` arguments.
    """
    from repro.apps.llm import LlmConfig, LlmWorkload

    if config is not None:
        workload["config"] = LlmConfig(**config)
    job = LlmWorkload(**workload)
    system = _boot(kind, job.footprint_bytes, ratio, backend=backend,
                   net_faults=net_faults)
    return Run(system, job.run(system))


def llm_pd(**params: Any) -> Run:
    """Prefill/decode-disaggregated LLM inference on one shared cluster
    (:func:`repro.apps.llm.build_pd` arguments); the report is the
    :class:`~repro.apps.llm.PdResult`."""
    from repro.apps.llm import build_pd

    job = build_pd(**params)
    return Run(job.cluster, job.run())


# -- cluster builders --------------------------------------------------------

def _spec(kind: str, local_bytes: int) -> SystemSpec:
    return SystemSpec(kind=kind, local_mem_bytes=local_bytes)


def tenant_mix(tenants: Tuple[Tuple[str, int, WorkloadFactory], ...],
               backend: BackendSpec, remote_mem_bytes: int,
               quantum_us: float, kind: str = "dilos-readahead",
               max_quanta: Optional[int] = None) -> Run:
    """Round-robin tenancy: ``(name, local bytes, workload factory)``
    tenants of one kernel kind co-scheduled on one shared backend.
    The report is each tenant's ``ops``, ``quanta``, ``run_us`` and
    ``done``; the merged snapshot is ``run.target.metrics()``."""
    cluster = ComputeCluster(backend=backend,
                             remote_mem_bytes=remote_mem_bytes,
                             quantum_us=quantum_us)
    for name, local_bytes, factory in tenants:
        cluster.add_tenant(name, _spec(kind, local_bytes), factory)
    cluster.run(max_quanta=max_quanta)
    return Run(cluster, {
        tenant.name: {"ops": tenant.ops, "quanta": tenant.quanta,
                      "run_us": tenant.run_us, "done": tenant.done}
        for tenant in cluster.tenants})


def serve_fleet(serve: Any,
                services: Tuple[Tuple[str, int, str, Mapping[str, Any]], ...],
                backend: BackendSpec = "sharded:2",
                kind: str = "dilos-readahead",
                contrast: Optional[Mapping[str, Any]] = None) -> Run:
    """Open-loop serving: ``(name, local bytes, service kind, params)``
    service tenants behind one frontend playing ``serve`` (arrivals ->
    admission -> balancer -> SLO accounting). ``contrast`` replaces
    fields of that spec for the naive run a preset argues against."""
    from repro.serve.spec import coerce_serve_spec

    cluster = ComputeCluster(backend=backend, remote_mem_bytes=64 * MIB)
    for name, local_bytes, service, params in services:
        cluster.add_service(name, _spec(kind, local_bytes), service, **params)
    spec = coerce_serve_spec(serve)
    if contrast:
        spec = spec.with_overrides(**contrast)
    return Run(cluster, cluster.serve(spec))


def kv_failover(backend: BackendSpec = "replicated:3",
                kind: str = "dilos-readahead",
                requests: int = 700,
                lease_us: float = 120.0,
                kill_at_us: float = 500.0,
                rejoin_at_us: float = 800.0) -> Run:
    """The full chaos suite against the replicated KV service.

    Two KV tenants serve an open-loop Poisson stream over one redundant
    backend while the fault schedule runs: lossy replication wire
    (seeded drop + corrupt), the lease holder killed mid-run, then
    rejoined so the paced background resilver replays its journal under
    load. The lease gates requests while the holder's death is fresh
    (``kv.unavail_rejects``), failover elects a clean member once the
    lease lapses, and the end-of-run :meth:`verify` audit folds any lost
    update into the digest and raises ``AssertionError`` on any — the
    acceptance criterion is that ``kv.lost_updates`` reads 0 and the
    whole run (trace digest, final clock, merged metrics) is
    byte-identical across repeats.
    """
    if rejoin_at_us <= kill_at_us:
        raise ValueError(f"the rejoin ({rejoin_at_us:g} us) must come "
                         f"after the kill ({kill_at_us:g} us)")
    serve = (f"poisson:rate=30k,clients=50k,slo=4ms,requests={requests},"
             "seed=37,balance=least")
    cluster = ComputeCluster(backend=backend, remote_mem_bytes=32 * MIB,
                             repair="resilver_period=100,resilver_batch=32")
    spec = _spec(kind, 256 * KIB)
    for name in ("kv1", "kv2"):
        cluster.add_service(name, spec, "kv", n_keys=48, value_bytes=160,
                            skew=0.9, write_fraction=0.35, seed=41,
                            lease_us=lease_us,
                            net_faults="drop=0.002,corrupt=0.001,seed=97")
    victim = cluster.backend.member_nodes()[0]
    # Timers fire as the shared busy clock passes their deadlines while
    # handlers charge work, so the kill lands mid-write-burst and the
    # rejoin leaves the resilver running under serving load.
    cluster.clock.call_at(kill_at_us, victim.fail)
    cluster.clock.call_at(rejoin_at_us,
                          lambda: cluster.backend.rejoin(victim))
    report = cluster.serve(serve)
    lost = sum(tenant.extra["service"].verify() for tenant in cluster.tenants)
    if lost:
        raise AssertionError(f"{lost} lost updates: acknowledged writes "
                             "were not durable across the failover")
    return Run(cluster, report)


def rack(serve: Any = None, **kwargs: Any) -> Run:
    """The rack serving preset (:func:`repro.sim.rack.make_rack`
    arguments), served once with ``serve`` (default
    :data:`~repro.sim.rack.DEFAULT_RACK_SERVE`)."""
    from repro.sim.rack import DEFAULT_RACK_SERVE, make_rack

    cluster = make_rack(**kwargs)
    return Run(cluster, cluster.serve(serve or DEFAULT_RACK_SERVE))


def repair_demo(backend: str = "replicated:2",
                kind: str = "dilos-readahead",
                region_bytes: int = 4 * MIB,
                local_bytes: int = 1 * MIB,
                repair: str = ("resilver_period=200,resilver_batch=32,"
                               "scrub_period=1000,scrub_batch=128"),
                max_advance_us: float = 2_000_000.0) -> Run:
    """The end-to-end rejoin/repair story (``python -m repro run
    repair_demo``).

    One DiLOS computing node on a redundant cluster backend walks the
    full failure lifecycle on the simulated clock:

    1. write pattern A over the region and let the cleaner drain it;
    2. kill one member, overwrite with pattern B — every missed write
       is journaled as stale for the dead member;
    3. ``rejoin`` the member: it comes back *syncing* and the paced
       background resilver replays the journal on its own QP;
    4. corrupt one page at rest and let the periodic scrubber detect
       and repair the divergence;
    5. kill a *different* member and verify every byte of pattern B —
       the read that silently returned stale data before this subsystem
       existed.

    The report is a dict of phase facts, canonical counters and the
    metrics digest; raises ``AssertionError`` if any byte reads back
    wrong.
    """
    cluster = make_backend(backend, 2 * region_bytes)
    if isinstance(cluster, ReplicatedMemory):
        victim = cluster.mirrors[0]
        second = cluster.primary
        rot_member, rot_node = len(cluster.mirrors), cluster.mirrors[-1]
    elif isinstance(cluster, ParityStripedMemory):
        victim = cluster.data_nodes[0]
        second = cluster.data_nodes[1]
        rot_member, rot_node = cluster.k, cluster.parity_node
    else:
        raise ValueError(
            f"repair demo needs a redundant backend, not {backend!r}")

    spec = SystemSpec(kind=kind, local_mem_bytes=local_bytes,
                      remote_mem_bytes=region_bytes, backend=cluster)
    system = spec.boot()
    RepairManager(cluster, system.clock, policy=repair)
    clock = system.clock
    region = system.mmap(region_bytes, name="repair.ws")
    pages = region.size // PAGE_SIZE

    def fill(tag: int) -> None:
        for i in range(pages):
            system.memory.write(region.base + i * PAGE_SIZE,
                                bytes([(i * 7 + tag) % 251]) * 48)

    def verify() -> None:
        for i in range(pages):
            got = system.memory.read(region.base + i * PAGE_SIZE, 48)
            want = bytes([(i * 7 + 1) % 251]) * 48
            assert got == want, \
                f"page {i} corrupted after rejoin: {got[:4]!r} != {want[:4]!r}"

    def advance_until(predicate, step_us: float = 1_000.0) -> float:
        start = clock.now
        while not predicate():
            if clock.now - start > max_advance_us:
                raise AssertionError("repair demo timed out waiting for "
                                     "the resilver/scrubber")
            clock.advance(step_us)
        return clock.now - start

    # 1. pattern A everywhere, cleaned to every member.
    fill(0)
    clock.advance(5_000)
    # 2. degraded writes: pattern B while the victim is down.
    victim.fail()
    fill(1)
    clock.advance(5_000)  # cleaner drains; missed writes hit the journal
    stale_after_degraded = cluster.stale_slots
    assert stale_after_degraded > 0, "no writes were journaled"
    # 3. rejoin: syncing until the paced resilver drains the journal.
    cluster.rejoin(victim)
    resilver_us = advance_until(lambda: not cluster.degraded)
    # 4. at-rest rot: flip one page on a non-authoritative member and let
    # the scrubber find it (it cycles the whole extent once per pass).
    rot_offset = 0
    rotted = bytes(b ^ 0xFF for b in rot_node.read_bytes(rot_offset, 64))
    rot_node.write_bytes(rot_offset, rotted)
    registry = cluster.registry
    scrub_us = advance_until(lambda: registry.value("scrub.repaired") > 0)
    assert cluster.journal.dirty_count(rot_member) == 0
    # 5. a *different* member dies; every byte must still be pattern B.
    second.fail()
    verify()
    snap = system.metrics()
    merged = cluster.metrics()
    interesting = {key: value for key, value in merged.counters.items()
                   if key.startswith(("cluster.", "repair.", "scrub."))}
    return Run(system, {
        "backend": backend,
        "kind": kind,
        "pages": pages,
        "stale_after_degraded": stale_after_degraded,
        "resilver_us": resilver_us,
        "scrub_us": scrub_us,
        "verified_pages": pages,
        "counters": interesting,
        "digest": snap.digest(),
        "time_us": clock.now,
    })


# -- the registry ------------------------------------------------------------

def _redis_fleet(*names: str, local_bytes: int = 256 * KIB,
                 **params: Any) -> Tuple[Tuple[str, int, str, Dict], ...]:
    return tuple((name, local_bytes, "redis",
                  dict(n_keys=400, value_bytes=4096, **params))
                 for name in names)


#: The small Redis shape (4 KiB values) and the larger one (Facebook
#: mixed sizes, twice the keys and queries).
_REDIS_SMALL = dict(value_size=4096, n_keys=40, n_queries=120,
                    remote_mib=32, arena_mib=8, ratio=0.25)
_REDIS_MIXED = dict(value_size="mixed", n_keys=80, n_queries=250,
                    remote_mib=128, arena_mib=32, ratio=0.25)
_KMEANS_SMALL = dict(n_points=1 << 11, clusters=4, iterations=2, ratio=0.25)
_DATAFRAME_SMALL = dict(rows=1 << 13, ratio=0.25)
_LLM_SMALL = dict(n_requests=4, seed=31)
_RACK_REDIS_POOL = dict(tenants=8,
                        topology="rack:compute=4,mem=4,link=100,oversub=4",
                        placement="locality", n_keys=32,
                        serve=("poisson:rate=400k,clients=1m,slo=2ms,"
                               "requests=600,seed=29,balance=round_robin"))

#: name -> scenario.
SCENARIOS: Dict[str, Scenario] = {
    # -- tenancy presets
    # The paper-style pairing: an analytics scan and a latency-sensitive
    # key-value server contending for one sharded pool. Local budgets sit
    # well under both working sets, so each tenant faults and evicts into
    # the shared backend while the other runs.
    "kmeans+redis": Scenario(
        "k-means scan + redis GETs on a shared pool", tenant_mix,
        dict(tenants=(("kmeans", 256 * KIB, kmeans_tenant()),
                      ("redis", 256 * KIB, redis_get_tenant())),
             backend="sharded:2", remote_mem_bytes=64 * MIB,
             quantum_us=100.0)),
    # Jain's fairness index should sit near 1.0.
    "stream-duo": Scenario(
        "two identical streamers (fairness smoke)", tenant_mix,
        dict(tenants=(("stream_a", 256 * KIB, seqread_tenant()),
                      ("stream_b", 256 * KIB, seqread_tenant())),
             backend="replicated:2", remote_mem_bytes=64 * MIB,
             quantum_us=250.0)),
    "mixed-trio": Scenario(
        "k-means + redis + streamer on one pool", tenant_mix,
        dict(tenants=(("kmeans", 512 * KIB, kmeans_tenant()),
                      ("redis", 512 * KIB, redis_get_tenant()),
                      ("stream", 256 * KIB, seqread_tenant())),
             backend="sharded:2", remote_mem_bytes=96 * MIB,
             quantum_us=500.0)),
    # -- serve presets, each with the naive run it argues against
    # Bursty overload (MMPP flash crowds at ~10x the fleet's capacity).
    # With depth/64 admission the queue — and therefore the p99 — stays
    # bounded well inside the 1 ms SLO while shed requests count on
    # serve.shed; the naive no-admission run lets the backlog grow for
    # the whole burst and violates the SLO for most requests.
    "flash_crowd": Scenario(
        "bursty overload; depth admission holds the SLO, naive violates",
        serve_fleet,
        dict(serve=("bursty:rate=100k,burst_rate=3m,on=3ms,off=5ms,"
                    "clients=1m,slo=1ms,requests=6000,seed=7,"
                    "admission=depth/64"),
             services=_redis_fleet("web1", "web2")),
        contrast=("no admission", {"admission": "none"})),
    # Generation is orders of magnitude more expensive per request than a
    # KV GET, so a flash crowd saturates the fleet almost immediately and
    # the time-to-first-token tail (serve.ttft_us, queueing included)
    # blows through the SLO without admission; the token bucket sheds the
    # burst overhang and keeps TTFT p99 bounded.
    "llm_flash_crowd": Scenario(
        "inference burst; token bucket holds TTFT p99, naive violates",
        serve_fleet,
        dict(serve=("bursty:rate=4k,burst_rate=1m,on=3ms,off=5ms,"
                    "clients=100k,slo=1ms,requests=1200,seed=23,"
                    "admission=bucket/5k/16"),
             services=tuple((name, 256 * KIB, "llm", {})
                            for name in ("gen1", "gen2"))),
        contrast=("no admission", {"admission": "none"})),
    # Key affinity sends the whole hot head of the zipf distribution to
    # one tenant (watch tenant.kv1.served vs its peers and the p99); the
    # least-outstanding run spreads load evenly at the cost of affinity.
    "hot_key_skew": Scenario(
        "zipf keys; consistent-hash affinity concentrates the hot head",
        serve_fleet,
        dict(serve=("poisson:rate=600k,clients=1m,slo=1ms,requests=6000,"
                    "seed=11,balance=hash"),
             services=_redis_fleet("kv1", "kv2", "kv3", skew=1.2)),
        contrast=("least-outstanding", {"balance": "least"})),
    # Two fast replicas and one memory-starved laggard: least-outstanding
    # routing notices the laggard's growing queue and routes around it,
    # while round-robin gives it a third of the traffic and drags the
    # fleet's p99 up by orders of magnitude.
    "slow_tenant_isolation": Scenario(
        "least-outstanding routes around a memory-starved laggard",
        serve_fleet,
        dict(serve=("poisson:rate=900k,clients=1m,slo=1ms,requests=6000,"
                    "seed=13,balance=least"),
             services=(_redis_fleet("fast1", "fast2", local_bytes=4 * MIB)
                       + _redis_fleet("laggard", local_bytes=128 * KIB))),
        contrast=("round-robin", {"balance": "round_robin"})),
    "repair_demo": Scenario(
        "kill, degraded writes, rejoin + resilver, scrub, second kill",
        repair_demo),
    # -- single-workload cases, one workload family at a time. The
    # "_small" cases are smaller runs of the builders the cases next to
    # them use.
    "seqread_dilos": Scenario(
        "DiLOS resident 4 MiB sequential read (TLB-hit fast path)",
        seqrw, dict(kind=_DILOS, mib=4, ratio=1.0)),
    "seqread_dilos_small": Scenario(
        "DiLOS 1 MiB sequential read at 25% local",
        seqrw, dict(kind=_DILOS, mib=1, ratio=0.25)),
    "seqread_dilos_cold": Scenario(
        "DiLOS 2 MiB sequential read at 25% local (fault path)",
        seqrw, dict(kind=_DILOS, mib=2, ratio=0.25)),
    "seqwrite_dilos": Scenario(
        "DiLOS 2 MiB sequential write at 50% local",
        seqrw, dict(kind=_DILOS, mib=2, ratio=0.5, mode="write")),
    "seqread_fastswap": Scenario(
        "Fastswap 2 MiB sequential read at 25% local (swap path)",
        seqrw, dict(kind="fastswap", mib=2, ratio=0.25)),
    "seqread_fastswap_small": Scenario(
        "Fastswap 1 MiB sequential read at 25% local",
        seqrw, dict(kind="fastswap", mib=1, ratio=0.25)),
    "seqscan_aifm": Scenario(
        "AIFM remoteable-array populate + scan at 25% local heap",
        remarray_scan, dict(count=2048)),
    "seqscan_aifm_small": Scenario(
        "AIFM remoteable-array populate + scan, 512 items",
        remarray_scan, dict(count=512)),
    "quicksort_dilos": Scenario(
        "DiLOS quicksort of 8K u64s at 50% local",
        quicksort, dict(kind=_DILOS, count=1 << 13, ratio=0.5)),
    "redis_get_dilos": Scenario(
        "DiLOS Redis GET, Facebook mixed value sizes",
        redis, dict(_REDIS_MIXED, kind=_DILOS)),
    "redis_get_fastswap": Scenario(
        "Fastswap Redis GET, Facebook mixed value sizes",
        redis, dict(_REDIS_MIXED, kind="fastswap")),
    "redis_get_dilos_small": Scenario(
        "DiLOS Redis GET, 4 KiB values",
        redis, dict(_REDIS_SMALL, kind=_DILOS)),
    "redis_get_fastswap_small": Scenario(
        "Fastswap Redis GET, 4 KiB values",
        redis, dict(_REDIS_SMALL, kind="fastswap")),
    "kmeans_dilos": Scenario(
        "DiLOS k-means over 16K far-memory points at 50% local",
        kmeans, dict(kind=_DILOS, n_points=1 << 14, clusters=10, iterations=4,
                     ratio=0.5)),
    "kmeans_dilos_small": Scenario(
        "DiLOS k-means over 2K points at 25% local",
        kmeans, dict(_KMEANS_SMALL, kind=_DILOS)),
    "dataframe_dilos": Scenario(
        "DiLOS taxi analytics over 64K far-memory rows at 50% local",
        dataframe, dict(kind=_DILOS, rows=1 << 16, ratio=0.5)),
    "dataframe_dilos_small": Scenario(
        "DiLOS taxi analytics over 8K rows at 25% local",
        dataframe, dict(_DATAFRAME_SMALL, kind=_DILOS)),
    # LLM inference: prefill writes + windowed random decode gathers over
    # the paged KV cache (see repro/apps/llm.py).
    "llm_dilos": Scenario(
        "DiLOS LLM inference, 4 requests at 25% local",
        llm, dict(_LLM_SMALL, kind=_DILOS)),
    "llm_dilos_sharded": Scenario(
        "DiLOS LLM inference over a healthy sharded:2 backend",
        llm, dict(_LLM_SMALL, kind=_DILOS, backend="sharded:2")),
    "llm_fastswap": Scenario(
        "Fastswap LLM inference, 4 requests at 25% local",
        llm, dict(_LLM_SMALL, kind="fastswap")),
    "llm_aifm": Scenario(
        "AIFM LLM inference, 4 requests at 25% local",
        llm, dict(_LLM_SMALL, kind="aifm-rdma")),
    "llm_decode_dilos": Scenario(
        "DiLOS LLM decode: random KV-cache gathers at 25% local",
        llm, dict(kind=_DILOS, n_requests=12, seed=31,
                  config=dict(heads=8, max_tokens=192),
                  prompt_min=24, prompt_max=80, out_min=8, out_max=16)),
    # perfbench's llm_pd chunk: the same run_pd arguments at seed 31.
    "llm_pd": Scenario(
        "DiLOS P:D-disaggregated LLM inference, 1:1 over sharded:2",
        llm_pd, dict(kind=_DILOS, ratio=0.25, split="1:1",
                     backend="sharded:2", n_requests=12, seed=31)),
    "rack": Scenario(
        "redis tenants striped over a pooled rack, locality placement",
        rack),
    "rack_redis_pool": Scenario(
        "8 redis tenants served over a pooled 4:1-oversubscribed rack",
        rack, _RACK_REDIS_POOL),
    # The same rack with load placement: pages spill off their tenant's
    # chassis, so requests cross the oversubscribed trunk and queue there.
    "rack_redis_pool_load": Scenario(
        "rack_redis_pool with load placement: trunk crossings and queueing",
        rack, dict(_RACK_REDIS_POOL, placement="load")),
    "kv_failover": Scenario(
        "replicated KV: lossy wire, lease-holder kill, rejoin + resilver",
        kv_failover),
    "kv_get_replicated": Scenario(
        "replicated KV service surviving a lease-holder kill + resilver",
        kv_failover, dict(requests=400)),
}


__all__ = [
    "Run",
    "SCENARIOS",
    "Scenario",
    "dataframe",
    "gapbs",
    "kmeans",
    "kmeans_tenant",
    "kv_failover",
    "llm",
    "llm_pd",
    "quicksort",
    "rack",
    "redis",
    "redis_get_tenant",
    "remarray_scan",
    "repair_demo",
    "seqread_tenant",
    "seqrw",
    "serve_fleet",
    "snappy",
    "tenant_mix",
]
