"""Kernel configuration: the fields every kernel takes, and DiLOS' own.

Each kernel's config subclasses :class:`KernelConfig` with only the
values an experiment varies; fixed testbed parameters (watermarks,
batch sizes, readahead windows) are constants beside the code that
reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.common.units import MIB
from repro.core.prefetch import PREFETCHERS
from repro.net.faults import (
    FaultPlan,
    RetryPolicy,
    coerce_fault_plan,
    coerce_retry_policy,
)
from repro.net.latency import LatencyModel


@dataclass
class KernelConfig:
    """The fields every kernel's config takes."""

    #: Local memory available to the kernel: the paging subsystem's
    #: frame pool ("local cache"), or AIFM's local heap budget.
    local_mem_bytes: int = 64 * MIB
    #: Remote memory-node capacity.
    remote_mem_bytes: int = 512 * MIB
    #: Network fault injection: ``None`` (perfect wire), a
    #: :class:`repro.net.FaultPlan`, or a spec string such as
    #: ``"drop=0.01,corrupt=0.005,seed=7"`` (parsed once at config
    #: construction). When set, all remote IO is routed through the
    #: reliable transport (timeout/retry/failover).
    net_faults: Optional[FaultPlan] = None
    #: Retry policy for the reliable transport (``None`` = defaults);
    #: a :class:`repro.net.RetryPolicy`. Only used when ``net_faults``
    #: is set.
    net_retry: Optional[RetryPolicy] = None
    #: Rack-fabric attachment: a :class:`repro.net.topology.FabricPort`
    #: binding this node to a shared :class:`~repro.net.topology
    #: .RackTopology`, or ``None`` (the flat private-wire model —
    #: bit-identical to the historical timing path). Set via
    #: ``SystemSpec(topology=...)``.
    fabric: Optional[Any] = None
    latency: LatencyModel = field(default_factory=LatencyModel)

    def __post_init__(self) -> None:
        self.net_faults = coerce_fault_plan(self.net_faults)
        self.net_retry = coerce_retry_policy(self.net_retry)

    def validate(self) -> None:
        if self.local_mem_bytes <= 0 or self.remote_mem_bytes <= 0:
            raise ValueError("memory sizes must be positive")


@dataclass
class DilosConfig(KernelConfig):
    """Knobs for one DiLOS instance.

    The ablation flags (``swap_cache_mode``, ``shared_single_qp``,
    ``direct_reclaim_only``) re-introduce the general-purpose-kernel designs
    the paper argues against, so their cost can be measured directly.
    """

    #: A key of :data:`~repro.core.prefetch.PREFETCHERS`: ``none`` /
    #: ``readahead`` / ``trend`` (§6 names) or ``stride`` (this repo's
    #: multi-stream extension).
    prefetcher: str = "readahead"
    #: Background page-manager wakeup period (microseconds).
    cleaner_period_us: float = 5.0
    #: Emulate AIFM's TCP transport: +14,000 cycles per completion (§6.2).
    tcp_emulation: bool = False
    #: Ablation: funnel every module through one shared QP (HoL blocking).
    shared_single_qp: bool = False
    #: Ablation: route prefetched pages through a swap-cache indirection
    #: (minor fault to map) instead of the unified page table.
    swap_cache_mode: bool = False
    #: Ablation: reclaim inline on the fault path instead of eagerly in the
    #: background (the Fastswap-style design DiLOS removes).
    direct_reclaim_only: bool = False

    def validate(self) -> None:
        super().validate()
        if self.prefetcher not in PREFETCHERS:
            raise ValueError(f"unknown prefetcher {self.prefetcher!r}")
