"""DiLOS' communication module (§4.5).

Requests from different paging modules must not block each other: the fault
handler's fetch must never sit behind a prefetcher's batch or the cleaner's
write-back (head-of-line blocking). The module therefore assigns one QP per
paging module — a shared-nothing layout in which every module has
lock-free, blocking-free access to its own queue. The paper keeps one
such set per core; the model has one core, so every QP is named
``<module>@core0``.

The ``shared_single_qp`` ablation collapses everything onto one QP to
measure exactly the blocking the design avoids.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.clock import Clock
from repro.net.faults import FaultPlan, RetryPolicy
from repro.net.latency import LatencyModel
from repro.net.qp import NetStats
from repro.net.reliable import open_qp
from repro.obs.tracer import NULL_TRACER

#: The paging modules that own queues (plus one per app-aware guide).
MODULES = ("fault", "prefetch", "manager", "guide")


class CommModule:
    """Owns all queue pairs of one computing node."""

    def __init__(
        self,
        clock: Clock,
        model: LatencyModel,
        remote,
        shared_single_qp: bool = False,
        extra_completion_delay: float = 0.0,
        tracer=NULL_TRACER,
        fault_plan: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        registry=None,
        fabric=None,
    ) -> None:
        self._clock = clock
        self._model = model
        self._remote = remote
        self._shared = shared_single_qp
        self._extra_delay = extra_completion_delay
        self.tracer = tracer
        self.stats = NetStats()
        #: When set, every module queue is a ReliableQP (primary + one
        #: sibling for failover) riding this fault plan.
        self.fault_plan = FaultPlan.coerce(fault_plan)
        self._retry = retry
        self._registry = registry
        #: Optional :class:`~repro.net.topology.FabricPort`: every QP of
        #: this node then pays rack-link contention per verb. ``None``
        #: keeps the flat (private-wire) model bit-for-bit.
        self._fabric = fabric
        self._qps: Dict[str, object] = {}

    def qp(self, module: str):
        """The queue pair for ``module``.

        Opened on first use by :func:`~repro.net.reliable.open_qp`: a
        raw QP on a perfect wire, a reliable transport over a primary
        and one sibling when the node has a fault plan.
        """
        if module not in MODULES:
            raise ValueError(f"unknown paging module {module!r}")
        key = "shared" if self._shared else module
        qp = self._qps.get(key)
        if qp is None:
            qp = open_qp(f"{key}@core0", self._clock, self._model,
                         self._remote, self.stats, plan=self.fault_plan,
                         policy=self._retry, registry=self._registry,
                         tracer=self.tracer, fabric=self._fabric,
                         extra_completion_delay=self._extra_delay)
            self._qps[key] = qp
        return qp

    @property
    def queue_count(self) -> int:
        return len(self._qps)
