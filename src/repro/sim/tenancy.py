"""Deterministic multi-tenant scheduling on shared memory backends.

A disaggregated memory pool is only interesting when more than one
computing node leans on it. :class:`ComputeCluster` interleaves N tenant
(system, workload) pairs on **one shared clock** and **one shared
backend** in round-robin quanta of simulated time: tenant A's page
evictions land in the same sharded pool tenant B is faulting from, and
every interleaving is a pure function of the specs and the quantum — the
same configuration always produces the same final metrics digest.

Tenants boot through :class:`repro.core.spec.SystemSpec` with the
cluster's clock and backend injected; each keeps its own
:class:`~repro.obs.Observability` bundle so per-tenant counters stay
separable. ``metrics()`` merges everything into one snapshot: tenant
counters re-keyed under ``tenant.<name>.<counter>``, plus aggregate
backend pressure and fairness instruments from the cluster's own
registry.

Workloads are generators over the booted system: each ``next()`` runs
one operation and advances the shared clock; the scheduler rotates
tenants whenever a tenant's time slice is spent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.common.clock import Clock
from repro.common.units import MIB
from repro.core.spec import (
    BackendLike,
    BackendSpec,
    SystemSpec,
    backend_label,
    make_backend,
)
from repro.mem.repair import RepairManager
from repro.obs import MetricsSnapshot
from repro.obs.registry import MetricsRegistry

#: Tenant names become metric-name segments (``tenant.<name>.fault.major``),
#: so they must be valid canonical-name segments.
_TENANT_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: A workload factory: booted system -> operation generator.
WorkloadFactory = Callable[[Any], Iterator[Any]]


@dataclass
class Tenant:
    """One computing node scheduled by a :class:`ComputeCluster`."""

    name: str
    spec: SystemSpec
    system: Any
    workload: Iterator[Any]
    #: Simulated µs consumed while this tenant held the CPU.
    run_us: float = 0.0
    #: Time slices this tenant has been scheduled for.
    quanta: int = 0
    #: Workload operations completed.
    ops: int = 0
    done: bool = False
    #: Shared-clock time when the workload finished (``None`` = running).
    finish_us: Optional[float] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def metrics(self) -> MetricsSnapshot:
        """This tenant's own (un-namespaced) metrics snapshot."""
        return self.system.metrics()


class ComputeCluster:
    """Round-robin scheduler for tenants over one shared memory backend.

    Args:
        backend: backend spec string (``"sharded:2"``, ...) or a ready
            backend object every tenant shares.
        remote_mem_bytes: pool capacity used when ``backend`` is a spec
            string.
        quantum_us: simulated time slice per scheduling turn. A tenant
            runs whole operations until its slice is spent, then the next
            live tenant runs — cooperative, deterministic round-robin.
        max_slice_ops: safety valve — a slice that completes this many
            operations without spending its quantum raises rather than
            spinning forever on a zero-cost workload.
        repair: a :class:`~repro.mem.repair.RepairPolicy` (or spec
            string) attaching the online resilver/scrub manager to the
            shared cluster backend; rebuild traffic then paces on the
            cluster's clock, interleaved with the tenants.
    """

    def __init__(self, backend: BackendSpec = "sharded:2",
                 remote_mem_bytes: int = 512 * MIB,
                 quantum_us: float = 1_000.0,
                 max_slice_ops: int = 1_000_000,
                 repair: Optional[Any] = None) -> None:
        if quantum_us <= 0:
            raise ValueError("quantum must be positive")
        self.clock = Clock()
        # A ready backend object passes through unchecked: each tenant's
        # boot runs make_backend's surface check on what it is bound to.
        self.backend: BackendLike = (
            make_backend(backend, remote_mem_bytes)
            if backend is None or isinstance(backend, str) else backend)
        self.backend_label = backend_label(backend)
        self.repair = None
        if repair is not None:
            if not callable(getattr(self.backend, "attach_repair", None)):
                raise ValueError(
                    "repair= needs a cluster backend, not "
                    f"{self.backend_label!r}")
            self.repair = RepairManager(self.backend, self.clock,
                                        policy=repair)
        self.quantum_us = quantum_us
        self.max_slice_ops = max_slice_ops
        self.tenants: List[Tenant] = []
        self._by_name: Dict[str, Tenant] = {}
        self.registry = MetricsRegistry()
        self.registry.counter("cluster.quanta")
        self.registry.counter("cluster.ops")
        self.registry.counter("cluster.tenants_finished")
        self.registry.gauge("cluster.fairness_jain", self._jain_index)
        self.registry.gauge("backend.capacity_bytes",
                            lambda: float(getattr(self.backend,
                                                  "capacity", 0)))
        self.registry.gauge("backend.total_slots",
                            lambda: float(getattr(self.backend,
                                                  "total_slots", 0)))
        self.registry.gauge("backend.free_slots",
                            lambda: float(getattr(self.backend,
                                                  "free_slots", 0)))

    # -- tenant management ---------------------------------------------------

    def add_tenant(self, name: str, spec: SystemSpec,
                   workload: WorkloadFactory) -> Tenant:
        """Boot ``spec`` on the cluster's clock and backend and enroll it.

        ``workload`` receives the booted system and returns the tenant's
        operation generator. Raises ``ValueError`` for a bad or duplicate
        name, and from an AIFM kind's boot, before anything is enrolled.
        """
        self._check_enrollment(name)
        return self._enroll(name, replace(spec, clock=self.clock,
                                          backend=self.backend), workload)

    def _check_enrollment(self, name: str) -> None:
        """Reject a bad or duplicate tenant name, with no side effect."""
        if not _TENANT_NAME_RE.match(name):
            raise ValueError(
                f"tenant name {name!r} must match {_TENANT_NAME_RE.pattern} "
                "(it becomes a metric-name segment)")
        if name in self._by_name:
            raise ValueError(f"duplicate tenant name {name!r}")

    def _enroll(self, name: str, bound: SystemSpec,
                workload: WorkloadFactory) -> Tenant:
        """Boot a checked, fully bound spec and add it to the rotation."""
        system = bound.boot()
        tenant = Tenant(name=name, spec=bound, system=system,
                        workload=iter(workload(system)))
        self.tenants.append(tenant)
        self._by_name[name] = tenant
        self.registry.counter(f"tenant.{name}.quanta")
        self.registry.counter(f"tenant.{name}.ops")
        self.registry.gauge(f"tenant.{name}.run_us",
                            lambda t=tenant: t.run_us)
        return tenant

    def add_service(self, name: str, spec: SystemSpec,
                    service: Any = "redis",
                    **service_kwargs: Any) -> Tenant:
        """Boot ``spec`` and enroll it as a request-driven *service*.

        ``service`` is a kind name from the
        :data:`repro.apps.api.SERVICES` table (``"redis"``,
        ``"kv"``, ...) built over the booted system with
        ``service_kwargs``, or a ready
        :class:`~repro.apps.api.Service` object. Service tenants have no
        workload generator — the open-loop frontend
        (:meth:`serve`) drives their ``handle()`` directly; round-robin
        :meth:`run` treats them as already finished.
        """
        from repro.apps.api import Service, build_service

        tenant = self.add_tenant(name, spec, lambda system: iter(()))
        system = tenant.system
        if isinstance(service, str):
            service = build_service(service, system, **service_kwargs)
        elif service_kwargs:
            raise ValueError("service_kwargs only apply when building a "
                             "service by kind name")
        if not isinstance(service, Service):
            raise TypeError(f"{service!r} does not implement the Service "
                            "protocol (name + handle)")
        tenant.done = True  # no workload generator to round-robin
        tenant.extra["service"] = service
        return tenant

    def serve(self, spec: Any, sampler: Optional[Any] = None):
        """Run one open-loop serving pass over the service tenants.

        ``spec`` is a :class:`~repro.serve.ServeSpec` or a spec string
        such as ``"poisson:rate=5k,clients=1m,slo=2ms"``. Returns the
        :class:`~repro.serve.ServeReport`.
        """
        # Deferred import: repro.serve drives *this* class, so a
        # top-level import would cycle.
        from repro.serve.frontend import ServeFrontend
        from repro.serve.spec import coerce_serve_spec

        return ServeFrontend(self, coerce_serve_spec(spec),
                             sampler=sampler).run()

    def tenant(self, name: str) -> Tenant:
        """Lookup by name; raises ``KeyError`` with the valid names."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no tenant {name!r}; have "
                           f"{sorted(self._by_name)}") from None

    # -- scheduling ----------------------------------------------------------

    def _live(self) -> List[Tenant]:
        return [t for t in self.tenants if not t.done]

    def _run_slice(self, tenant: Tenant) -> None:
        start = self.clock.now
        deadline = start + self.quantum_us
        tenant.quanta += 1
        self.registry.add("cluster.quanta")
        self.registry.add(f"tenant.{tenant.name}.quanta")
        slice_ops = 0
        while self.clock.now < deadline:
            try:
                next(tenant.workload)
            except StopIteration:
                tenant.done = True
                tenant.finish_us = self.clock.now
                self.registry.add("cluster.tenants_finished")
                break
            tenant.ops += 1
            slice_ops += 1
            self.registry.add("cluster.ops")
            self.registry.add(f"tenant.{tenant.name}.ops")
            if slice_ops >= self.max_slice_ops:
                raise RuntimeError(
                    f"tenant {tenant.name!r} ran {slice_ops} operations "
                    "without consuming its time slice; the workload is not "
                    "advancing the clock")
        tenant.run_us += self.clock.now - start

    def run(self, max_quanta: Optional[int] = None) -> MetricsSnapshot:
        """Schedule round-robin until every workload finishes.

        ``max_quanta`` bounds the total number of time slices (across all
        tenants) — useful for open-loop workloads. Returns the merged
        cluster snapshot (also available any time via :meth:`metrics`).
        """
        if not self.tenants:
            raise RuntimeError("no tenants enrolled")
        issued = 0
        while True:
            live = self._live()
            if not live:
                break
            for tenant in live:
                if tenant.done:
                    continue
                if max_quanta is not None and issued >= max_quanta:
                    return self.metrics()
                self._run_slice(tenant)
                issued += 1
        return self.metrics()

    # -- merged observability ------------------------------------------------

    def metrics(self) -> MetricsSnapshot:
        """One snapshot for the whole cluster.

        The cluster registry's aggregates (``cluster.*``, ``backend.*``,
        ``tenant.<name>.quanta/ops/run_us``) merge with every tenant's
        own counters, breakdowns and histograms re-keyed under
        ``tenant.<name>.<canonical>``. The result digests like any other
        snapshot, so two runs of the same configuration are
        metrics-identical iff their digests match.
        """
        merged = self.registry.snapshot("cluster", self.clock.now)
        backend_metrics = getattr(self.backend, "metrics", None)
        if callable(backend_metrics):
            # Cluster backends report their own redundancy/repair state
            # (``cluster.*``, ``repair.*``, ``scrub.*``); surface it in
            # the merged snapshot so tenancy pressure metrics can assert
            # on degraded-mode behaviour.
            for key, value in backend_metrics().counters.items():
                merged.counters.setdefault(key, value)
        for tenant in self.tenants:
            snap = tenant.metrics()
            prefix = f"tenant.{tenant.name}."
            for key, value in snap.counters.items():
                merged.counters[prefix + key] = value
            for key, value in snap.breakdowns.items():
                merged.breakdowns[prefix + key] = value
            for key, value in snap.breakdown_counts.items():
                merged.breakdown_counts[prefix + key] = value
            for key, value in snap.histograms.items():
                merged.histograms[prefix + key] = value
        merged.extra["backend"] = self.backend_label
        merged.extra["tenants"] = [t.name for t in self.tenants]
        return merged

    def _jain_index(self) -> float:
        """Jain's fairness index over per-tenant scheduled time.

        1.0 = perfectly even CPU-time split; 1/N = one tenant hogged the
        whole timeline. 1.0 by convention before anything has run.
        """
        shares = [t.run_us for t in self.tenants]
        total = sum(shares)
        if not shares or total <= 0:
            return 1.0
        squares = sum(s * s for s in shares)
        return min(1.0, (total * total) / (len(shares) * squares))


__all__ = ["ComputeCluster", "Tenant", "WorkloadFactory"]
