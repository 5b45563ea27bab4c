"""Experiment plumbing shared by benchmarks and examples.

The paper's evaluation sweeps each workload across systems (Fastswap,
DiLOS x prefetcher, DiLOS-TCP, AIFM) and local-memory ratios (12.5%, 25%,
50%, 100% of the working set). ``make_system`` builds any of those by a
short presentation key; ``sweep_ratios`` runs a measurement function over
the grid and collects :class:`Measurement` rows the report module formats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.common.units import KIB, MIB
from repro.core.spec import KERNELS, BackendSpec, SystemSpec, backend_label
from repro.obs import Observability

#: Presentation keys, matching the paper's figure legends: the keys of
#: :data:`repro.core.spec.KERNELS`, in its order.
SYSTEM_KINDS = tuple(KERNELS)

#: The legend of DiLOS readahead plus the workload's own guide (Figures 9
#: and 10's "app-aware" series); the builders with a guide take it.
APP_AWARE = "dilos-app-aware"

#: The paper's local-memory sweep.
PAPER_RATIOS = (0.125, 0.25, 0.50, 1.0)

#: Floor on local memory so watermarks and metadata always fit.
MIN_LOCAL_BYTES = 192 * KIB


def local_bytes_for(footprint_bytes: int, ratio: float,
                    minimum: int = MIN_LOCAL_BYTES) -> int:
    """Local cache size for a workload footprint at a sweep ratio."""
    if not 0.0 < ratio <= 1.5:
        raise ValueError(f"implausible local-memory ratio {ratio}")
    scaled = footprint_bytes * ratio
    if ratio >= 1.0:
        # The paper's "100%" keeps the whole working set resident; leave
        # headroom for the free-frame watermark reserve so the page manager
        # does not evict a fully fitting working set.
        scaled *= 1.15
    return max(int(scaled), minimum)


def make_system(kind: str, local_bytes: int,
                remote_bytes: int = 512 * MIB,
                obs: Optional[Observability] = None,
                backend: BackendSpec = "node",
                **overrides: Any):
    """Boot a system by presentation key.

    Builds a :class:`~repro.core.spec.SystemSpec` from the arguments and
    boots it. Returns a :class:`BaseSystem` for the paging systems or an
    :class:`AifmRuntime` for the AIFM variants.
    ``obs`` injects an observability bundle — e.g.
    ``Observability.tracing()`` to record simulated-clock trace events —
    the default is a fresh registry with tracing disabled.

    ``backend`` selects the remote-memory backend: ``"node"`` (one
    memory node, the default), a cluster spec such as ``"sharded:4"``,
    ``"replicated:3"`` or ``"parity:4+1"``, or a ready backend object to
    share across systems. Systems share a clock only as tenants of a
    :class:`~repro.sim.tenancy.ComputeCluster`.

    Extra keyword arguments pass straight into the system's config
    dataclass; notably ``net_faults`` (a :class:`repro.net.FaultPlan`
    or a spec string such as ``"drop=0.01,corrupt=0.005,seed=7"``) and
    ``net_retry`` route all remote IO through the reliable transport —
    the same knob every kind understands. Online repair attaches after
    boot (``RepairManager(system.node, system.clock, policy=...)``), and
    a serve spec is the argument of a cluster's ``serve(spec)``.
    """
    spec = SystemSpec(kind=kind, local_mem_bytes=local_bytes,
                      remote_mem_bytes=remote_bytes, backend=backend,
                      obs=obs, overrides=overrides)
    return spec.boot()


@dataclass
class Measurement:
    """One cell of a paper table/figure."""

    system: str
    workload: str
    ratio: float
    value: float
    unit: str
    extra: Dict[str, Any] = field(default_factory=dict)

    def record_metrics(self, system) -> "Measurement":
        """Attach ``system``'s metrics snapshot under ``extra["metrics"]``.

        The snapshot is saved as its canonical JSON object, so saved
        measurement JSON stays plain. Returns ``self`` so runners can
        ``return measurement.record_metrics(system)``.
        """
        self.extra["metrics"] = json.loads(system.metrics().canonical_json())
        return self


class _GridCell:
    """Picklable invoker for one (system, ratio) cell of a sweep grid.

    ``sweep_ratios --jobs`` ships these to pool workers, so the wrapped
    runner must itself be picklable (a module-level function or class
    instance, not a closure) when ``jobs > 1``.
    """

    def __init__(self, runner: Callable[..., Measurement],
                 backend: BackendSpec) -> None:
        self.runner = runner
        self.backend = backend

    def __call__(self, cell) -> Measurement:
        kind, ratio = cell
        return self.runner(kind, ratio, backend=self.backend)


def sweep_ratios(
    workload_name: str,
    runner: Callable[..., Measurement],
    systems: Iterable[str],
    ratios: Iterable[float] = PAPER_RATIOS,
    backend: BackendSpec = "node",
    jobs: Optional[int] = None,
) -> List[Measurement]:
    """Run ``runner(system_kind, ratio, backend=backend)`` over the full
    grid.

    ``backend`` pins every booted system to one backend spec (e.g.
    ``"sharded:4"``); it is forwarded to every runner and stamped into
    each measurement's ``extra``.

    ``jobs > 1`` fans the grid cells out across that many worker
    processes (each cell boots its own system, so cells are fully
    independent and every simulated result is identical to a serial
    run); results are merged back in grid order. Parallel runs require
    ``runner`` to be picklable.
    """
    from repro.harness.parallel import fanout

    cells = [(kind, ratio) for kind in systems for ratio in ratios]
    results = fanout(_GridCell(runner, backend), cells, jobs)
    for (kind, ratio), measurement in zip(cells, results):
        measurement.system = kind
        measurement.workload = workload_name
        measurement.ratio = ratio
        measurement.extra.setdefault("backend", backend_label(backend))
    return results


def pick(measurements: List[Measurement], system: str,
         ratio: Optional[float] = None) -> Measurement:
    """The unique measurement for (system, ratio); raises if absent."""
    hits = [m for m in measurements
            if m.system == system and (ratio is None or m.ratio == ratio)]
    if len(hits) != 1:
        raise LookupError(
            f"expected one measurement for {system}@{ratio}, found {len(hits)}")
    return hits[0]
