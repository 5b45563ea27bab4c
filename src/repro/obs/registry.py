"""The typed metrics registry all kernels report through.

Four instrument kinds, all registered under canonical dotted names
(:mod:`repro.obs.names`):

* :class:`Counter` — monotonically increasing scalar (``fault.major``);
* :class:`Gauge` — point-in-time value, usually bound to a callable
  (``net.bytes_read`` reads the fabric's byte accounting at snapshot time);
* :class:`Histogram` — raw samples with percentiles (``fault.minor_wait_us``);
* :class:`LatencyBreakdown` — per-component fault-latency accumulation
  (``fault.breakdown``, the Figure 1/6 data).

``registry.snapshot(...)`` freezes everything into a
:class:`~repro.obs.snapshot.MetricsSnapshot`. An instrument has one name,
its canonical one: there are no aliases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Union

from repro.common import stats as _stats
from repro.obs.names import validate_name
from repro.obs.snapshot import MetricsSnapshot
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer


class Counter:
    """A single monotonically increasing counter instrument."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value: either set explicitly or bound to a callable
    that is evaluated lazily at snapshot time (zero steady-state cost)."""

    __slots__ = ("name", "_value", "_fn")

    def __init__(self, name: str,
                 fn: Optional[Callable[[], float]] = None) -> None:
        self.name = name
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        self._fn = None
        self._value = value

    @property
    def value(self) -> float:
        if self._fn is not None:
            return self._fn()
        return self._value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram(_stats.Histogram):
    """A named histogram instrument (raw samples + percentiles)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name

    def summary(self) -> Dict[str, float]:
        """Count/mean/min/max/p50/p99 for snapshots; empty dict if empty."""
        if not self.count:
            return {}
        return {
            "count": float(self.count),
            "mean": self.mean(),
            "min": self.min(),
            "max": self.max(),
            "p50": self.pct(50),
            "p99": self.pct(99),
        }


class LogHistogram(_stats.LogHistogram):
    """A named bounded-memory log-bucketed histogram instrument.

    The per-request instrument: recording folds the sample into a fixed
    geometric bucket (no per-sample allocation), so serving-scale request
    streams — millions of latencies — cost a few hundred ints total. Its
    summary adds ``p999``, the serving tail the SLO layer reports on.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name

    def summary(self) -> Dict[str, float]:
        """Count/mean/min/max/p50/p99/p999; empty dict if empty."""
        if not self.count:
            return {}
        return {
            "count": float(self.count),
            "mean": self.mean(),
            "min": self.min(),
            "max": self.max(),
            "p50": self.pct(50),
            "p99": self.pct(99),
            "p999": self.pct(99.9),
        }


class LatencyBreakdown(_stats.LatencyBreakdown):
    """A named per-component latency breakdown instrument."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name


Instrument = Union[Counter, Gauge, Histogram, LogHistogram, LatencyBreakdown]


class MetricsRegistry:
    """Canonical-namespaced home of every instrument of one system.

    Instruments are created on first request and shared thereafter;
    requesting an existing name with a different instrument kind raises.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    # -- instrument factories ------------------------------------------------

    def _register(self, name: str, kind) -> Instrument:
        inst = self._instruments.get(name)
        if inst is None:
            inst = kind(validate_name(name))
            self._instruments[name] = inst
        elif type(inst) is not kind:
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, not {kind.__name__}")
        return inst

    def counter(self, name: str) -> Counter:
        return self._register(name, Counter)

    def gauge(self, name: str,
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        gauge = self._register(name, Gauge)
        if fn is not None:
            gauge._fn = fn
        return gauge

    def histogram(self, name: str) -> Histogram:
        # NOTE: retains raw samples. Audit (PR 6): the only per-sample
        # users are the kernels' ``fault.minor_wait_us`` (bounded by the
        # workload's minor-fault count and pinned by the golden-master
        # digests, so left as-is). Anything recording per *request* must
        # use :meth:`log_histogram` instead.
        return self._register(name, Histogram)

    def log_histogram(self, name: str) -> LogHistogram:
        """A bounded-memory log-bucketed histogram (per-request scale)."""
        return self._register(name, LogHistogram)

    def breakdown(self, name: str) -> LatencyBreakdown:
        return self._register(name, LatencyBreakdown)

    # -- shorthands ----------------------------------------------------------

    def add(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name``, creating it on first use."""
        inst = self._instruments.get(name)
        if inst is None:
            inst = self.counter(name)
        inst.add(amount)

    def value(self, name: str) -> float:
        """Current value of a counter or gauge; 0 when unregistered."""
        inst = self._instruments.get(name)
        if inst is None:
            return 0
        if isinstance(inst, (Counter, Gauge)):
            return inst.value
        raise TypeError(f"metric {name!r} is a {type(inst).__name__}, "
                        "not a scalar instrument")

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Zero counters, clear histograms and breakdowns. Gauges are
        live views and are left untouched."""
        for inst in self._instruments.values():
            if not isinstance(inst, Gauge):
                inst.reset()

    def snapshot(self, system: str = "", time_us: float = 0.0) -> MetricsSnapshot:
        """Freeze every instrument into a typed snapshot."""
        counters: Dict[str, float] = {}
        breakdowns: Dict[str, Dict[str, float]] = {}
        breakdown_counts: Dict[str, int] = {}
        histograms: Dict[str, Dict[str, float]] = {}
        for name, inst in self._instruments.items():
            if isinstance(inst, (Counter, Gauge)):
                counters[name] = inst.value
            elif isinstance(inst, (Histogram, LogHistogram)):
                histograms[name] = inst.summary()
            else:
                breakdowns[name] = inst.averages()
                breakdown_counts[name] = inst.fault_count
        return MetricsSnapshot(
            system=system, time_us=time_us, counters=counters,
            breakdowns=breakdowns, breakdown_counts=breakdown_counts,
            histograms=histograms)


@dataclass
class Observability:
    """The injectable observability bundle: one registry + one tracer.

    Every system owns one (``system.obs``); pass your own to
    ``make_system(..., obs=...)`` or a system constructor to share a
    registry across systems or to turn tracing on.
    """

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Union[Tracer, NullTracer] = NULL_TRACER

    @classmethod
    def default(cls) -> "Observability":
        """Fresh registry, tracing disabled (the zero-overhead default)."""
        return cls(registry=MetricsRegistry(), tracer=NULL_TRACER)

    @classmethod
    def tracing(cls, capacity: int = 65536) -> "Observability":
        """Fresh registry with an enabled ring-buffered tracer."""
        return cls(registry=MetricsRegistry(),
                   tracer=Tracer(capacity=capacity, enabled=True))
