"""The benchmark's three workloads: rack_redis, llm_pd and kv_chaos.

Each workload builds its system in :meth:`setup` (boot, populate,
warm-up; timed per phase), then runs the timed phase as a sequence of
chunks. :meth:`prepare` makes a chunk's inputs from the seed before the
timer starts; :meth:`run_chunk` is the only timed call; :meth:`account`
folds the chunk's outputs into the run's totals and checks them, after
the timer stopped. README.md in this directory says why each workload
was chosen and what one operation means in it.
"""

from __future__ import annotations

import gc
import random
from collections import defaultdict
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.apps.api import Request, Response
from repro.apps import llm as llm_app
from repro.apps.llm import PD_CONFIG, LlmWorkload
from repro.common.stats import LogHistogram, percentile
from repro.common.units import KIB, MIB
from repro.core.spec import SystemSpec
from repro.harness.experiment import local_bytes_for, make_system
from repro.serve import ServeSpec
from repro.sim.rack import RackCluster
from repro.sim.tenancy import ComputeCluster


def chunk_seed(seed: int, index: int) -> int:
    """Seed of chunk ``index`` of a run seeded ``seed``."""
    return seed * 1_000_003 + index


def program_totals(cluster: Any) -> Dict[str, float]:
    """The cluster's cumulative counters summed over tenants under their
    canonical names, plus fault-breakdown totals as
    ``fault.breakdown.<component>`` (snapshots carry per-fault averages
    and counts) and prefetch usefulness from each kernel's hit tracker."""
    snap = cluster.metrics()
    totals: Dict[str, float] = defaultdict(float)
    for key, value in snap.counters.items():
        if key.startswith("tenant."):
            key = key.split(".", 2)[2]
        totals[key] += float(value)
    for key, averages in snap.breakdowns.items():
        count = snap.breakdown_counts.get(key, 0)
        if key.startswith("tenant."):
            key = key.split(".", 2)[2]
        for component, avg in averages.items():
            totals[f"{key}.{component}"] += avg * count
    for tenant in cluster.tenants:
        tracker = tenant.system.kernel.hit_tracker
        totals["prefetch.useful"] += tracker.hits
        totals["prefetch.useless"] += tracker.misses
    return totals


class PooledLatency(LogHistogram):
    """Request latency pooled over the run's serving passes.

    The frontend resets its ``serve.latency_us`` histogram at the start
    of every pass, so the benchmark folds each pass's buckets in here.
    """

    def absorb(self, other: LogHistogram) -> None:
        for index, count in other._counts.items():
            self._counts[index] = self._counts.get(index, 0) + count
        self._count += other._count
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)


class Workload:
    """Shared bookkeeping: operation counts and the chunk-0 fingerprint."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.ok = 0
        self.failed = 0
        #: Outputs that failed a check: one message each.
        self.mismatches: List[str] = []
        self.fingerprint: Dict[str, str] = {}
        self.cluster: Any = None

    def setup(self) -> Dict[str, float]:
        raise NotImplementedError

    def prepare(self, index: int) -> None:
        raise NotImplementedError

    def run_chunk(self) -> None:
        raise NotImplementedError

    def account(self, index: int) -> None:
        raise NotImplementedError

    def check(self) -> List[str]:
        """End-of-run correctness audit; returns failure messages."""
        raise NotImplementedError

    def totals(self) -> Dict[str, float]:
        """Cumulative program counters (see :func:`program_totals`)."""
        return program_totals(self.cluster)

    def simtime(self) -> Dict[str, float]:
        """Simulated-time results of the timed phase so far."""
        raise NotImplementedError


# -- open-loop serving workloads ---------------------------------------------


class _ServeWorkload(Workload):
    """A cluster of service tenants driven through ``cluster.serve``."""

    #: Requests per serving pass (one timed chunk).
    CHUNK = 1000
    WARMUP = 1000
    SERVE: Dict[str, Any] = {}

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.latency = PooledLatency()
        self.shed = 0
        self.violations = 0
        self.goodput = 0
        self.elapsed_us = 0.0
        self._requests: List[Request] = []
        self._spec: Optional[ServeSpec] = None
        self._report: Any = None

    def _shims(self) -> List[Any]:
        return [t.extra["service"] for t in self.cluster.tenants]

    def _sample(self, rng: random.Random) -> Request:
        return self._shims()[0].inner.sample_request(rng)

    def _serve(self, requests: int, seed: int) -> Any:
        rng = random.Random(seed)
        stream = iter([self._sample(rng) for _ in range(requests)])
        spec = ServeSpec(requests=requests, seed=seed, **self.SERVE)
        return self.cluster.serve(spec, sampler=lambda _rng: next(stream))

    def warmup(self) -> None:
        self._serve(self.WARMUP, chunk_seed(self.seed, -1))
        for shim in self._shims():
            shim.service_us = 0.0

    def prepare(self, index: int) -> None:
        rng = random.Random(chunk_seed(self.seed, index))
        self._requests = [self._sample(rng) for _ in range(self.CHUNK)]
        self._spec = ServeSpec(requests=self.CHUNK,
                               seed=chunk_seed(self.seed, index),
                               **self.SERVE)

    def run_chunk(self) -> None:
        stream = iter(self._requests)
        self._report = self.cluster.serve(
            self._spec, sampler=lambda _rng: next(stream))

    def account(self, index: int) -> None:
        report = self._report
        failed = report.shed + report.errors
        self.attempted += report.offered
        self.failed += failed
        self.ok += report.offered - failed
        self.shed += report.shed
        self.violations += report.slo_violations
        self.goodput += report.goodput
        self.elapsed_us += report.elapsed_us
        self.latency.absorb(
            self.cluster.registry.log_histogram("serve.latency_us"))
        for shim in self._shims():
            self.mismatches.extend(shim.mismatches)
            shim.mismatches.clear()
        if index == 0:
            self.fingerprint = {
                "trace_digest": report.trace_digest,
                "metrics_digest": report.snapshot.digest(),
            }

    def simtime(self) -> Dict[str, float]:
        service_us = sum(shim.service_us for shim in self._shims())
        answered = self.latency.count
        latency_sum = self.latency.mean() * answered if answered else 0.0
        return {
            "latency_p50_us": self.latency.pct(50) if answered else 0.0,
            "latency_p99_us": self.latency.pct(99) if answered else 0.0,
            "latency_samples": float(answered),
            "queue_us": latency_sum - service_us,
            "service_us": service_us,
            "goodput_rps": (self.goodput / (self.elapsed_us / 1e6)
                            if self.elapsed_us else 0.0),
            "slo_misses": float(self.violations + self.failed),
        }


class CheckedRedis:
    """Service shim: checks every GET against the benchmark's model of
    the keyspace and remembers the last value it SET per key.

    A key the benchmark never SET must still hold its populated value,
    of which the service keeps the first 16 bytes (``expected``).
    """

    name = "redis"

    def __init__(self, inner: Any, clock: Any) -> None:
        self.inner = inner
        self.clock = clock
        self.written: Dict[bytes, bytes] = {}
        self.mismatches: List[str] = []
        self.service_us = 0.0

    def expect_ok(self, key: bytes, value: Any) -> bool:
        want = self.written.get(key)
        if want is not None:
            return value == want
        return (isinstance(value, bytes)
                and len(value) == self.inner.value_bytes
                and value[:16] == self.inner.expected[key])

    def handle(self, request: Request) -> Response:
        t0 = self.clock.now
        response = self.inner.handle(request)
        self.service_us += self.clock.now - t0
        if request.op == "set" and response.ok:
            self.written[request.key] = request.value
        elif request.op == "get" and response.ok \
                and not self.expect_ok(request.key, response.value):
            self.mismatches.append(f"GET {request.key!r} returned a value "
                                   "the benchmark did not write")
            return Response.fail("check failed")
        return response


class RackRedis(_ServeWorkload):
    """8 DiLOS redis tenants on a pooled, oversubscribed rack."""

    name = "rack_redis"
    TOPOLOGY = "rack:compute=4,mem=4,link=100,oversub=4"
    TENANTS = 8
    LOCAL_BYTES = 192 * KIB
    #: 240 keys x 4 KiB = 960 KiB per tenant, 5x its local memory.
    N_KEYS = 240
    VALUE_BYTES = 4096
    WRITE_FRACTION = 0.05
    #: Simulated p99 is 50x the steady state over the first ~2k
    #: requests (population and cleaner transient): warm up past it.
    WARMUP = 2500
    CHUNK = 1000
    SERVE = {"kind": "poisson", "rate_rps": 400_000.0,
             "clients": 1_000_000, "slo_us": 2_000.0,
             "balance": "round_robin"}

    def setup(self) -> Dict[str, float]:
        t0 = perf_counter()
        cluster = RackCluster(topology=self.TOPOLOGY, placement="load",
                              remote_mem_bytes=256 * MIB)
        spec = SystemSpec(kind="dilos-readahead",
                          local_mem_bytes=self.LOCAL_BYTES,
                          remote_mem_bytes=256 * MIB)
        t1 = perf_counter()
        for i in range(self.TENANTS):
            tenant = cluster.add_service(
                f"t{i}", spec, "redis", n_keys=self.N_KEYS,
                value_bytes=self.VALUE_BYTES,
                write_fraction=self.WRITE_FRACTION)
            tenant.extra["service"] = CheckedRedis(tenant.extra["service"],
                                                   cluster.clock)
        self.cluster = cluster
        t2 = perf_counter()
        self.warmup()
        t3 = perf_counter()
        return {"boot_s": t1 - t0, "populate_s": t2 - t1,
                "warmup_s": t3 - t2}

    def check(self) -> List[str]:
        problems = []
        for tenant in self.cluster.tenants:
            shim = tenant.extra["service"]
            for i in range(self.N_KEYS):
                key = b"key:%d" % i
                response = shim.inner.handle(Request("get", key=key))
                if not response.ok or not shim.expect_ok(key,
                                                          response.value):
                    problems.append(f"{tenant.name}: {key!r} does not read "
                                    "back the last value written")
        return problems


class RetryingKv:
    """Service shim: a client that retries a refused request.

    The KV service refuses requests during a lease blackout and writes
    without a quorum; a client waits :data:`BACKOFF_US` of simulated
    time and tries again, up to :data:`TRIES` times, so the blackout
    shows up as latency. Each refusal is counted in ``refused``. GETs
    of keys the benchmark SET are checked against the value it wrote.
    """

    name = "kv"
    BACKOFF_US = 20.0
    TRIES = 100

    def __init__(self, inner: Any, system: Any) -> None:
        self.inner = inner
        self.system = system
        self.clock = system.clock
        self.written: Dict[bytes, bytes] = {}
        self.mismatches: List[str] = []
        self.refused = 0
        self.service_us = 0.0

    def handle(self, request: Request) -> Response:
        t0 = self.clock.now
        for _ in range(self.TRIES):
            response = self.inner.handle(request)
            if response.ok:
                break
            self.refused += 1
            self.system.cpu(self.BACKOFF_US)
        self.service_us += self.clock.now - t0
        if not response.ok:
            return response
        if request.op == "set":
            self.written[request.key] = request.value
        elif request.op == "get" and request.key in self.written \
                and response.value != self.written[request.key]:
            self.mismatches.append(f"GET {request.key!r} returned a value "
                                   "other than the last acknowledged SET")
            return Response.fail("check failed")
        return response


class KvChaos(_ServeWorkload):
    """Two replicated KV tenants under a repeating kill/rejoin cycle."""

    name = "kv_chaos"
    N_KEYS = 48
    VALUE_BYTES = 160
    WRITE_FRACTION = 0.35
    LEASE_US = 120.0
    NET_FAULTS = "drop=0.002,corrupt=0.001,seed=97"
    #: Busy-clock period of the chaos cycle: kill one member, rejoin it
    #: a quarter period later, let the paced resilver catch it up.
    PERIOD_US = 4_000.0
    REJOIN_US = 1_000.0
    WARMUP = 3000
    CHUNK = 4000
    SERVE = {"kind": "poisson", "rate_rps": 30_000.0, "clients": 50_000,
             "slo_us": 4_000.0, "balance": "least"}

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._kills = 0

    def setup(self) -> Dict[str, float]:
        t0 = perf_counter()
        cluster = ComputeCluster(
            backend="replicated:3", remote_mem_bytes=32 * MIB,
            repair="resilver_period=100,resilver_batch=32")
        spec = SystemSpec(kind="dilos-readahead", local_mem_bytes=256 * KIB)
        t1 = perf_counter()
        for name in ("kv1", "kv2"):
            tenant = cluster.add_service(
                name, spec, "kv", n_keys=self.N_KEYS,
                value_bytes=self.VALUE_BYTES, skew=0.9,
                write_fraction=self.WRITE_FRACTION, seed=41,
                lease_us=self.LEASE_US, net_faults=self.NET_FAULTS)
            tenant.extra["service"] = RetryingKv(tenant.extra["service"],
                                                 tenant.system)
        self.cluster = cluster
        t2 = perf_counter()
        cluster.clock.call_at(cluster.clock.now + self.PERIOD_US,
                              self._kill_next)
        self.warmup()
        t3 = perf_counter()
        return {"boot_s": t1 - t0, "populate_s": t2 - t1,
                "warmup_s": t3 - t2}

    def _kill_next(self) -> None:
        """One chaos cycle: members are killed in turn, so every third
        kill hits the lease holder's seat after a failover moved it."""
        backend = self.cluster.backend
        clock = self.cluster.clock
        victim = backend.member_nodes()[self._kills % 3]
        self._kills += 1
        victim.fail()
        clock.call_at(clock.now + self.REJOIN_US,
                      lambda: backend.rejoin(victim))
        clock.call_at(clock.now + self.PERIOD_US, self._kill_next)

    def totals(self) -> Dict[str, float]:
        totals = program_totals(self.cluster)
        for shim in self._shims():
            totals["net.bytes_read"] += shim.inner.net.bytes_read
            totals["net.bytes_written"] += shim.inner.net.bytes_written
            totals["kv.refused"] += shim.refused
        return totals

    def check(self) -> List[str]:
        problems = []
        for tenant in self.cluster.tenants:
            bad = tenant.extra["service"].inner.verify()
            if bad:
                problems.append(f"{tenant.name}: verify() found {bad} "
                                "discrepancies")
        lost = self.cluster.metrics().value("kv.lost_updates")
        if lost:
            problems.append(f"kv.lost_updates == {lost:g}")
        return problems


# -- prefill/decode disaggregation -------------------------------------------


class LlmPd(Workload):
    """P:D-disaggregated LLM inference, one fresh cluster per chunk.

    Every chunk is one :func:`repro.apps.llm.run_pd` call, which boots
    its own cluster: caches start empty by design.
    """

    name = "llm_pd"
    REQUESTS = 12
    RUN = {"kind": "dilos-readahead", "ratio": 0.25, "split": "1:1",
           "backend": "sharded:2"}
    #: run_pd's request-length defaults, shared with the reference run.
    BOUNDS = {"prompt_min": 24, "prompt_max": 56, "out_min": 8,
              "out_max": 16}

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._totals: Dict[str, float] = defaultdict(float)
        self.ttft_us: List[float] = []
        self.makespan_us = 0.0
        self._seed = 0
        self._result: Any = None

    def setup(self) -> Dict[str, float]:
        t0 = perf_counter()
        self._run(chunk_seed(self.seed, -1), requests=4)
        return {"boot_s": 0.0, "populate_s": 0.0,
                "warmup_s": perf_counter() - t0}

    def _run(self, seed: int, requests: int) -> Any:
        """``run_pd`` with its cluster captured for counters and the
        simulated clock (run_pd builds the cluster internally)."""
        original = ComputeCluster.__init__
        workload = self

        def capturing_init(cluster: Any, *args: Any, **kwargs: Any) -> None:
            original(cluster, *args, **kwargs)
            workload.cluster = cluster

        ComputeCluster.__init__ = capturing_init  # type: ignore[method-assign]
        try:
            return llm_app.run_pd(n_requests=requests, seed=seed, **self.RUN,
                          **self.BOUNDS)
        finally:
            ComputeCluster.__init__ = original  # type: ignore[method-assign]

    def prepare(self, index: int) -> None:
        self._seed = chunk_seed(self.seed, index)

    def run_chunk(self) -> None:
        self._result = self._run(self._seed, self.REQUESTS)
        # The previous chunk's cluster is cyclic garbage now. Collecting
        # it here, inside the timed chunk, keeps its cost in the
        # measurement and frees it at the same point in every run, so
        # the resident set does not depend on when the collector fires.
        gc.collect()

    def account(self, index: int) -> None:
        result = self._result
        ok = result.requests
        want = self.reference(self._seed)
        got = (result.token_digest, result.kv_digest, result.decoded_tokens)
        if got != want:
            ok = 0  # the digests cover every request of the chunk
            self.mismatches.append(
                f"seed {self._seed}: P:D output differs from the all-local "
                "single-node run")
        self.attempted += self.REQUESTS
        self.ok += ok
        self.failed += self.REQUESTS - ok
        self.ttft_us.extend(result.ttft_us)
        self.makespan_us += result.makespan_us
        for key, value in program_totals(self.cluster).items():
            self._totals[key] += value
        if index == 0:
            self.fingerprint = {
                "token_digest": result.token_digest,
                "kv_digest": result.kv_digest,
                "metrics_digest": result.snapshot_digest,
            }

    def reference(self, seed: int) -> Any:
        """Token digest, KV digest and token count of an all-local,
        single-node run of the same requests."""
        workload = LlmWorkload(n_requests=self.REQUESTS, seed=seed,
                               config=PD_CONFIG, **self.BOUNDS)
        system = make_system(self.RUN["kind"],
                             local_bytes_for(workload.footprint_bytes, 1.0))
        result = workload.run(system)
        return result.token_digest, result.kv_digest, result.decoded_tokens

    def check(self) -> List[str]:
        return []  # every chunk is checked against its reference

    def totals(self) -> Dict[str, float]:
        """Counters summed over the clusters of the chunks run so far."""
        return dict(self._totals)

    def simtime(self) -> Dict[str, float]:
        samples = len(self.ttft_us)
        return {
            "latency_p50_us": (percentile(self.ttft_us, 50)
                               if samples else 0.0),
            "latency_p99_us": (percentile(self.ttft_us, 99)
                               if samples else 0.0),
            "latency_samples": float(samples),
            "queue_us": 0.0,
            "service_us": self.makespan_us,
            "goodput_rps": (self.ok / (self.makespan_us / 1e6)
                            if self.makespan_us else 0.0),
            "slo_misses": float(self.failed),
        }


WORKLOADS = {cls.name: cls for cls in (RackRedis, LlmPd, KvChaos)}

