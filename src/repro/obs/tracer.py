"""Simulated-clock event tracing with ring-buffer bounding.

The tracer records two event shapes, mirroring the Chrome ``trace_event``
phases used by the exporter:

* **complete** (``ph="X"``): a span with a start timestamp and duration —
  a fault being handled, a reclaim pass, a wire read in flight;
* **instant** (``ph="i"``): a point event — a prefetch issued, a page
  evicted.

Timestamps are simulated-clock microseconds (the simulator's native
unit), so exported traces show *simulated* concurrency, not host time.

The hot-path contract is zero overhead when disabled: instrumented code
guards every emission with ``if tracer.enabled:``, and the module-level
:data:`NULL_TRACER` singleton keeps that check a plain attribute load on
systems built without tracing. The buffer is a bounded deque; overflow
drops the *oldest* events and counts them in :attr:`Tracer.dropped`.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, List, Optional


class TraceRecord:
    """One trace event.

    Attributes:
        name: event name (``fault.major``, ``net.read``, ...).
        cat: category — becomes the Perfetto track (``fault``, ``net``...).
        ph: phase, ``"X"`` (complete span) or ``"i"`` (instant).
        ts: simulated-clock start time, microseconds.
        dur: span duration in microseconds (0.0 for instants).
        args: small JSON-safe payload (vpn, bytes, components...).
    """

    __slots__ = ("name", "cat", "ph", "ts", "dur", "args")

    def __init__(self, name: str, cat: str, ph: str, ts: float,
                 dur: float = 0.0,
                 args: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.cat = cat
        self.ph = ph
        self.ts = ts
        self.dur = dur
        self.args = args or {}

    def as_dict(self) -> Dict[str, Any]:
        out = {"name": self.name, "cat": self.cat, "ph": self.ph,
               "ts": self.ts}
        if self.ph == "X":
            out["dur"] = self.dur
        if self.args:
            out["args"] = self.args
        return out

    def __repr__(self) -> str:
        return (f"TraceRecord({self.name!r}, cat={self.cat!r}, "
                f"ph={self.ph!r}, ts={self.ts}, dur={self.dur})")


class Tracer:
    """Bounded recorder of :class:`TraceRecord` events.

    The tracer does not own a clock reference; callers pass explicit
    timestamps (they already have ``clock.now`` in hand on the fault
    path), which also lets one tracer serve several clocked components.
    """

    def __init__(self, capacity: int = 65536, enabled: bool = False) -> None:
        if capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        self.enabled = enabled
        self.dropped = 0
        self._events: deque = deque(maxlen=capacity)

    # -- emission ------------------------------------------------------------

    def _append(self, record: TraceRecord) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(record)

    def instant(self, name: str, cat: str, ts: float,
                args: Optional[Dict[str, Any]] = None) -> None:
        """Record a point event at simulated time ``ts``."""
        if not self.enabled:
            return
        self._append(TraceRecord(name, cat, "i", ts, 0.0, args))

    def complete(self, name: str, cat: str, ts: float, dur: float,
                 args: Optional[Dict[str, Any]] = None) -> None:
        """Record a span that started at ``ts`` and lasted ``dur`` µs."""
        if not self.enabled:
            return
        self._append(TraceRecord(name, cat, "X", ts, dur, args))

    @contextmanager
    def span(self, name: str, cat: str, clock,
             args: Optional[Dict[str, Any]] = None):
        """Context manager measuring a span on ``clock`` (simulated µs).

        The span is emitted on exit with ``dur = clock.now - entry_now``,
        including when the body raises.
        """
        if not self.enabled:
            yield
            return
        start = clock.now
        try:
            yield
        finally:
            self.complete(name, cat, start, clock.now - start, args)

    # -- inspection -----------------------------------------------------------

    def events(self) -> List[TraceRecord]:
        """All buffered events, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)


class NullTracer:
    """Disabled tracer with the full :class:`Tracer` surface.

    ``enabled`` is always ``False``; every emission is a no-op. Used as
    the default so un-traced systems pay only an attribute check.
    """

    enabled = False
    capacity = 0
    dropped = 0

    def instant(self, name: str, cat: str, ts: float,
                args: Optional[Dict[str, Any]] = None) -> None:
        pass

    def complete(self, name: str, cat: str, ts: float, dur: float,
                 args: Optional[Dict[str, Any]] = None) -> None:
        pass

    @contextmanager
    def span(self, name: str, cat: str, clock,
             args: Optional[Dict[str, Any]] = None):
        yield

    def events(self) -> List[TraceRecord]:
        return []

    def __len__(self) -> int:
        return 0


#: Shared no-op tracer; safe to use as a default for any number of systems.
NULL_TRACER = NullTracer()
