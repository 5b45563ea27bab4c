"""The open-loop serving frontend: arrivals -> admission -> balancer ->
tenant services, with SLO accounting in canonical ``serve.*`` metrics.

The frontend reconciles two timelines:

* The cluster's **shared clock** is a *busy clock*: it advances only
  while some service executes (faults, network round-trips, CPU cycles),
  exactly as in the closed-loop harness, so background machinery
  (cleaners, repair, scrub) stays bit-for-bit deterministic.
* Each tenant additionally keeps a **virtual serving timeline**. An
  arrival at virtual time ``a`` whose service work measures ``d`` µs of
  shared-clock time starts at ``start = max(a, tenant_ready)`` and
  completes at ``start + d``; ``tenant_ready`` advances to the
  completion. Request latency is ``completion - a`` — real queueing
  delay under overload, without ever rewinding the shared clock.

Queue depth at an arrival is the number of requests already routed to
the chosen tenant whose virtual completions are still in the future —
the quantity admission control bounds and the ``least`` balancer
minimizes.

Every run also folds a canonical line per request into a SHA-256
**trace digest** (arrival time, client, tenant, op, admit/shed,
latency). Two runs of the same spec must produce identical digests; the
CLI's determinism gate replays each preset twice and fails on drift.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.apps.api import Request, Service
from repro.obs import MetricsSnapshot
from repro.serve.admission import AdmissionPolicy, make_admission
from repro.serve.balancer import Balancer, make_balancer
from repro.serve.spec import ServeSpec, make_arrivals

#: A request sampler: seeded rng -> next request (the workload model).
RequestSampler = Callable[[random.Random], Request]


@dataclass
class ServeReport:
    """Everything one open-loop run produced, ready for assertions."""

    spec: ServeSpec
    offered: int
    admitted: int
    shed: int
    completed: int
    errors: int
    goodput: int
    slo_violations: int
    #: Virtual makespan: last arrival or last completion, whichever is
    #: later. The denominator for the ``*_rps`` rates.
    elapsed_us: float
    #: SHA-256 over the canonical per-request trace lines.
    trace_digest: str
    #: ``count/mean/min/max/p50/p99/p999`` of request latency (µs).
    latency: Dict[str, float]
    #: The merged cluster snapshot taken at the end of the run.
    snapshot: MetricsSnapshot
    #: Requests routed to each tenant (admitted only).
    per_tenant: Dict[str, int] = field(default_factory=dict)
    #: ``count/mean/.../p99`` of time-to-first-token (µs), queueing
    #: delay included — populated only by token services (llm) whose
    #: responses carry ``ttft_us`` in their value dict.
    ttft: Dict[str, float] = field(default_factory=dict)
    #: Same shape for time-per-output-token (µs, decode-side only).
    tpot: Dict[str, float] = field(default_factory=dict)

    @property
    def violation_rate(self) -> float:
        """Fraction of completed requests that missed the SLO."""
        return self.slo_violations / self.completed if self.completed else 0.0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @property
    def offered_rps(self) -> float:
        return self.offered / (self.elapsed_us / 1e6) if self.elapsed_us else 0.0

    @property
    def goodput_rps(self) -> float:
        return self.goodput / (self.elapsed_us / 1e6) if self.elapsed_us else 0.0

    def summary(self) -> Dict[str, float]:
        """The headline numbers as a flat dict (report tables, tests)."""
        return {
            "offered": float(self.offered),
            "admitted": float(self.admitted),
            "shed": float(self.shed),
            "completed": float(self.completed),
            "errors": float(self.errors),
            "goodput": float(self.goodput),
            "slo_violations": float(self.slo_violations),
            "violation_rate": self.violation_rate,
            "shed_rate": self.shed_rate,
            "offered_rps": self.offered_rps,
            "goodput_rps": self.goodput_rps,
            "p50_us": self.latency.get("p50", 0.0),
            "p99_us": self.latency.get("p99", 0.0),
            "p999_us": self.latency.get("p999", 0.0),
            "ttft_p99_us": self.ttft.get("p99", 0.0),
            "tpot_p99_us": self.tpot.get("p99", 0.0),
        }


class ServeFrontend:
    """Drive one open-loop run against a cluster's service tenants.

    Args:
        cluster: a :class:`~repro.sim.tenancy.ComputeCluster` whose
            service tenants (enrolled via ``add_service``) will receive
            the requests.
        spec: the :class:`~repro.serve.spec.ServeSpec` describing the
            arrival process, admission policy, balancer and SLO.
        sampler: request factory; defaults to the first service tenant's
            ``sample_request`` (all built-in services provide one). All
            tenants should serve the same keyspace when routing by
            ``hash``, or affinity is meaningless.
    """

    def __init__(self, cluster: Any, spec: ServeSpec,
                 sampler: Optional[RequestSampler] = None) -> None:
        self.cluster = cluster
        self.spec = spec
        self._tenants = [t for t in cluster.tenants
                         if isinstance(t.extra.get("service"), Service)]
        if not self._tenants:
            raise RuntimeError(
                "no service tenants enrolled; add them with "
                "ComputeCluster.add_service(...) before serving")
        self._services: List[Service] = [t.extra["service"]
                                         for t in self._tenants]
        if sampler is None:
            head = self._services[0]
            sample = getattr(head, "sample_request", None)
            if not callable(sample):
                raise RuntimeError(
                    f"service {head.name!r} has no sample_request; pass an "
                    "explicit sampler")
            sampler = sample
        self._sampler = sampler
        registry = cluster.registry
        self._offered = registry.counter("serve.offered")
        self._admitted = registry.counter("serve.admitted")
        self._shed = registry.counter("serve.shed")
        self._completed = registry.counter("serve.completed")
        self._errors = registry.counter("serve.errors")
        self._violations = registry.counter("serve.slo_violations")
        self._goodput = registry.counter("serve.goodput")
        self._latency = registry.log_histogram("serve.latency_us")
        self._depth_hist = registry.log_histogram("serve.queue_depth")
        # Token-level SLO metrics; only populated when a service's
        # responses carry ttft_us/tpot_us in their value dict (llm).
        self._ttft = registry.log_histogram("serve.ttft_us")
        self._tpot = registry.log_histogram("serve.tpot_us")
        self._offered_rps = registry.gauge("serve.offered_rps")
        self._goodput_rps = registry.gauge("serve.goodput_rps")
        self._served = [registry.counter(f"tenant.{tenant.name}.served")
                        for tenant in self._tenants]

    def _reset_instruments(self) -> None:
        """Zero every instrument this frontend owns.

        The cluster registry shares instruments by name, so a second
        ``cluster.serve(spec)`` on the same cluster would otherwise keep
        accumulating into the first run's ``serve.*`` counters and
        double-count the snapshot. Each run reports itself only.
        """
        for inst in (self._offered, self._admitted, self._shed,
                     self._completed, self._errors, self._violations,
                     self._goodput, self._latency, self._depth_hist,
                     self._ttft, self._tpot, *self._served):
            inst.reset()
        self._offered_rps.set(0.0)
        self._goodput_rps.set(0.0)

    def run(self) -> ServeReport:
        """Play the whole arrival stream; returns the run's report."""
        self._reset_instruments()
        spec = self.spec
        admission: AdmissionPolicy = make_admission(spec.admission)
        admission.reset()
        names = [t.name for t in self._tenants]
        balancer: Balancer = make_balancer(spec.balance, names)
        rng = random.Random(spec.seed + 1)
        clock = self.cluster.clock
        sampler = self._sampler
        services = self._services
        served = self._served
        offered, admitted, shed = self._offered, self._admitted, self._shed
        completed, errors = self._completed, self._errors
        violations, goodput = self._violations, self._goodput
        latency_hist, depth_hist = self._latency, self._depth_hist
        slo_us = spec.slo_us
        n = len(services)
        ready = [0.0] * n
        queues: List[Deque[float]] = [deque() for _ in range(n)]
        trace = hashlib.sha256()
        last_arrival = 0.0

        for arrival in make_arrivals(spec):
            arrival_us = last_arrival = arrival.t_us
            request = sampler(rng)
            offered.value += 1
            # Outstanding requests per tenant at the arrival instant.
            depths = []
            for queue in queues:
                while queue and queue[0] <= arrival_us:
                    queue.popleft()
                depths.append(len(queue))
            key = request.routing_key()
            index = balancer.pick(key, depths)
            depth = depths[index]
            depth_hist.record(float(depth))
            if admission.admit(arrival_us, depth):
                admitted.value += 1
                t0 = clock.now
                response = services[index].handle(request)
                duration = clock.now - t0
                tenant_ready = ready[index]
                start = (tenant_ready if tenant_ready > arrival_us
                         else arrival_us)
                done = start + duration
                ready[index] = done
                queues[index].append(done)
                served[index].value += 1
                latency = done - arrival_us
                completed.value += 1
                latency_hist.record(latency)
                value = response.value
                if isinstance(value, dict) and "ttft_us" in value:
                    # TTFT as the client sees it: virtual queueing delay
                    # before the tenant starts, plus prefill + first
                    # decode.
                    self._ttft.record((start - arrival_us)
                                      + value["ttft_us"])
                    self._tpot.record(value.get("tpot_us", 0.0))
                if not response.ok:
                    errors.value += 1
                if latency > slo_us:
                    violations.value += 1
                elif response.ok:
                    goodput.value += 1
                verdict = "A"
            else:
                shed.value += 1
                latency = 0.0
                verdict = "S"
            # repr() of a float is its shortest round-trip form — stable
            # across runs and platforms, which the determinism gate
            # relies on.
            trace.update(f"{arrival_us!r}|{arrival.client_id}|"
                         f"{names[index]}|{request.op}|{key.hex()}|"
                         f"{verdict}|{latency!r}\n".encode())

        elapsed = max([last_arrival] + ready)
        self._offered_rps.set(
            spec.requests / (elapsed / 1e6) if elapsed else 0.0)
        self._goodput_rps.set(
            goodput.value / (elapsed / 1e6) if elapsed else 0.0)
        return ServeReport(
            spec=spec,
            offered=spec.requests,
            admitted=admitted.value,
            shed=shed.value,
            completed=admitted.value,
            errors=errors.value,
            goodput=goodput.value,
            slo_violations=violations.value,
            elapsed_us=elapsed,
            trace_digest=trace.hexdigest(),
            latency=dict(latency_hist.summary()),
            snapshot=self.cluster.metrics(),
            per_tenant={name: counter.value
                        for name, counter in zip(names, served)},
            ttft=dict(self._ttft.summary()),
            tpot=dict(self._tpot.summary()),
        )


__all__ = ["RequestSampler", "ServeFrontend", "ServeReport"]
