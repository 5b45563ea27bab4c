"""Typed, frozen view of a :class:`~repro.obs.registry.MetricsRegistry`.

``MetricsSnapshot`` is the return type of ``BaseSystem.metrics()``. Read
a counter or gauge with :meth:`MetricsSnapshot.value` (or the
:attr:`~MetricsSnapshot.counters` dict) under its canonical name. Harness
code that adds presentation values (``Trace.replay``'s ``replay_us``,
``LibOS``'s heap figures) writes them into :attr:`~MetricsSnapshot.extra`,
which the determinism digest leaves out.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict


@dataclass
class MetricsSnapshot:
    """One system's metrics at one simulated instant.

    Attributes:
        system: system name (``"dilos"``, ``"fastswap"``, ``"aifm"``).
        time_us: simulated clock time when the snapshot was taken.
        counters: canonical name -> counter/gauge value.
        breakdowns: canonical name -> per-component average latency (µs).
        breakdown_counts: canonical name -> number of recorded samples.
        histograms: canonical name -> summary stats (count/mean/p50/...).
        extra: mutable bag for presentation values added after the run.
    """

    system: str = ""
    time_us: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    breakdowns: Dict[str, Dict[str, float]] = field(default_factory=dict)
    breakdown_counts: Dict[str, int] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, float]] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)

    def value(self, canonical: str, default: float = 0) -> float:
        """Counter/gauge value under its canonical name."""
        return self.counters.get(canonical, default)

    # -- determinism digest ----------------------------------------------------

    def canonical_json(self) -> str:
        """Canonical JSON over every registry-owned field of the snapshot.

        ``extra`` is excluded: it is a mutable bag that harness code
        writes presentation values into, not simulation output. Keys are
        sorted and floats use ``repr`` (via ``json``), so the string —
        and therefore :meth:`digest` — is stable across interpreter runs
        and Python versions for identical simulation results.
        """
        return json.dumps(
            {
                "system": self.system,
                "time_us": self.time_us,
                "counters": self.counters,
                "breakdowns": self.breakdowns,
                "breakdown_counts": self.breakdown_counts,
                "histograms": self.histograms,
            },
            sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """SHA-256 hex digest of :meth:`canonical_json`.

        This is the golden-master contract: two runs are *metrics-identical*
        iff their digests match — same simulated clock, same counters and
        gauges, same breakdown averages, same histogram summaries.
        """
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()
