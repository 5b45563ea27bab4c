"""Unified observability: typed metrics + simulated-clock event tracing.

Every kernel (DiLOS, Fastswap, the AIFM runtime) reports through one
:class:`MetricsRegistry` of typed instruments registered under a canonical
dotted namespace (``fault.major``, ``net.bytes_read``, ...), and emits
structured span/instant events through one :class:`Tracer` stamped with
simulated-clock time. The registry snapshots to a typed
:class:`MetricsSnapshot` (the return type of ``BaseSystem.metrics()``);
the tracer exports to JSONL and Chrome ``trace_event`` JSON (loadable in
Perfetto). See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.names import (
    NET_RELIABILITY_KEYS,
    SERVE_KEYS,
    SHARED_KEYS,
    validate_name,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    LatencyBreakdown,
    LogHistogram,
    MetricsRegistry,
    Observability,
)
from repro.obs.snapshot import MetricsSnapshot
from repro.obs.tracer import NULL_TRACER, NullTracer, TraceRecord, Tracer
from repro.obs.export import (
    chrome_trace,
    fault_breakdown_from_spans,
    to_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LatencyBreakdown",
    "LogHistogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NET_RELIABILITY_KEYS",
    "NULL_TRACER",
    "NullTracer",
    "Observability",
    "SERVE_KEYS",
    "SHARED_KEYS",
    "TraceRecord",
    "Tracer",
    "chrome_trace",
    "fault_breakdown_from_spans",
    "to_jsonl",
    "validate_chrome_trace",
    "validate_name",
    "write_chrome_trace",
    "write_jsonl",
]
