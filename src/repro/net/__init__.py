"""Network substrate: the RDMA fabric model, fault injection, and the
reliable transport layered on top of it."""

from repro.net.faults import (
    Fault,
    FaultPlan,
    RetryPolicy,
    TransportError,
    checksum,
    coerce_fault_plan,
    coerce_retry_policy,
)
from repro.net.latency import DEFAULT_LATENCY, LatencyModel, cycles_to_us, CPU_GHZ
from repro.net.qp import Completion, NetStats, QueuePair
from repro.net.reliable import ReliableQP, open_qp
from repro.net.topology import (
    FabricPort,
    Link,
    RackTopology,
)

__all__ = [
    "CPU_GHZ",
    "Completion",
    "DEFAULT_LATENCY",
    "FabricPort",
    "Fault",
    "FaultPlan",
    "LatencyModel",
    "Link",
    "NetStats",
    "QueuePair",
    "RackTopology",
    "ReliableQP",
    "RetryPolicy",
    "TransportError",
    "checksum",
    "coerce_fault_plan",
    "coerce_retry_policy",
    "cycles_to_us",
    "open_qp",
]
