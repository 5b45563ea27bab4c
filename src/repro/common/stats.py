"""Histograms, latency breakdowns and percentiles.

The :mod:`repro.obs` instruments of the same names build on these
classes, and every kernel (DiLOS, Fastswap, AIFM runtime) keeps them in
its :class:`~repro.obs.MetricsRegistry`; the harness reads them after a
run to produce the paper's tables and figures. Counters live only in the
registry.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List


def percentile(samples: Iterable[float], pct: float) -> float:
    """Return the ``pct``-th percentile (0-100) by linear interpolation.

    Raises ``ValueError`` on an empty sample set — a silent 0.0 would turn a
    broken experiment into a plausible-looking tail latency.
    """
    data = sorted(samples)
    if not data:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    if len(data) == 1:
        return data[0]
    rank = (pct / 100.0) * (len(data) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return data[lo]
    frac = rank - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac


class Histogram:
    """Retains raw samples; good enough at simulation scale.

    Provides mean/min/max/percentiles for tail-latency tables (Table 4).
    """

    __slots__ = ("_samples",)

    def __init__(self) -> None:
        self._samples: List[float] = []

    def record(self, value: float) -> None:
        self._samples.append(value)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> List[float]:
        return list(self._samples)

    def mean(self) -> float:
        if not self._samples:
            raise ValueError("mean of empty histogram")
        return sum(self._samples) / len(self._samples)

    def min(self) -> float:
        return min(self._samples)

    def max(self) -> float:
        return max(self._samples)

    def pct(self, p: float) -> float:
        return percentile(self._samples, p)

    def reset(self) -> None:
        self._samples.clear()


class LogHistogram:
    """Bounded-memory log-bucketed histogram (HDR-histogram style).

    :class:`Histogram` retains every raw sample — fine for a few thousand
    fault waits, fatal for per-request latency at "millions of users"
    scale. ``LogHistogram`` folds each sample into one of a fixed set of
    geometric buckets (:data:`BUCKETS_PER_OCTAVE` per power of two, so
    quantiles carry at most ~:math:`2^{1/8}-1 \\approx 9\\%` relative
    error) and never allocates per sample. Memory is bounded by the
    *dynamic range* of the data — ~400 buckets across 18 decades — not by
    the sample count.

    Mean, min and max are tracked exactly; ``pct`` returns the geometric
    midpoint of the bucket containing the requested rank, clamped into
    ``[min, max]``. Everything is pure float math on the recorded counts,
    so two runs recording identical samples summarize bit-identically.
    """

    __slots__ = ("_counts", "_count", "_sum", "_min", "_max")

    #: Geometric bucket resolution: 8 buckets per power of two.
    BUCKETS_PER_OCTAVE = 8
    #: Values at or below this floor share the lowest bucket (1 ns in µs).
    FLOOR = 1e-3

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def record(self, value: float) -> None:
        # The bucket is floor(log2(max(value, FLOOR)) * BUCKETS_PER_OCTAVE),
        # with max() spelled out: NaN still reaches log2 and raises.
        floor = self.FLOOR
        index = math.floor(math.log2(floor if floor > value else value)
                           * self.BUCKETS_PER_OCTAVE)
        counts = self._counts
        counts[index] = counts.get(index, 0) + 1
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def count(self) -> int:
        return self._count

    def mean(self) -> float:
        if not self._count:
            raise ValueError("mean of empty histogram")
        return self._sum / self._count

    def min(self) -> float:
        if not self._count:
            raise ValueError("min of empty histogram")
        return self._min

    def max(self) -> float:
        if not self._count:
            raise ValueError("max of empty histogram")
        return self._max

    def pct(self, p: float) -> float:
        """The ``p``-th percentile (0-100) to bucket resolution."""
        if not self._count:
            raise ValueError("percentile of empty histogram")
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        target = (p / 100.0) * self._count
        cumulative = 0
        for index in sorted(self._counts):
            cumulative += self._counts[index]
            if cumulative >= target:
                midpoint = 2.0 ** ((index + 0.5) / self.BUCKETS_PER_OCTAVE)
                return min(max(midpoint, self._min), self._max)
        return self._max

    def reset(self) -> None:
        self._counts.clear()
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf


class LatencyBreakdown:
    """Accumulates per-component latency for fault-handler breakdowns.

    Reproduces Figures 1 and 6: each handled fault contributes its component
    costs (hardware exception, software path, fetch wait, reclaim, ...), and
    the figure shows per-fault averages per component.
    """

    __slots__ = ("_totals", "_faults")

    def __init__(self) -> None:
        self._totals: Dict[str, float] = defaultdict(float)
        self._faults = 0

    def record_fault(self, components: Dict[str, float]) -> None:
        """Record one fault's component costs (microseconds each)."""
        for name, value in components.items():
            self._totals[name] += value
        self._faults += 1

    @property
    def fault_count(self) -> int:
        return self._faults

    def averages(self) -> Dict[str, float]:
        """Per-fault average cost of each component."""
        if self._faults == 0:
            return {}
        return {k: v / self._faults for k, v in self._totals.items()}

    def average_total(self) -> float:
        if self._faults == 0:
            raise ValueError("no faults recorded")
        return sum(self._totals.values()) / self._faults

    def reset(self) -> None:
        self._totals.clear()
        self._faults = 0
