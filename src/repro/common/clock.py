"""Simulated time.

All latencies in the simulator are expressed in microseconds, the natural
unit for RDMA-era far memory (a 4 KiB fetch is 2-3 us; a page-fault exception
is ~0.5 us). The clock only moves when a component explicitly charges time,
so runs are deterministic and independent of host speed.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Tuple


class Clock:
    """A monotonically advancing microsecond clock with deadline callbacks.

    Components may register ``call_at`` callbacks (e.g. a background cleaner
    waking up); they fire, in timestamp order, whenever the clock passes
    their deadline. Callbacks may re-arm themselves.
    """

    __slots__ = ("_now", "_timers", "_seq")

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        # Min-heap of (deadline, seq, callback); the unique seq breaks
        # deadline ties in registration order, so firing order is exactly
        # the sorted-list order this queue used to keep.
        self._timers: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = 0

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    def advance(self, delta: float) -> None:
        """Move time forward by ``delta`` microseconds."""
        if delta < 0:
            raise ValueError(f"cannot advance clock by negative delta {delta}")
        now = self._now + delta
        timers = self._timers
        if not timers or timers[0][0] > now:
            # Hot path: no timer falls due by the new time (the earliest
            # deadline is later), so the advance is a bare assignment.
            self._now = now
            return
        self.advance_to(now)

    def advance_to(self, deadline: float) -> None:
        """Move time forward to ``deadline``, firing any due timers."""
        if deadline < self._now:
            # Completions computed in the past are simply "already done".
            return
        timers = self._timers
        while timers and timers[0][0] <= deadline:
            when, _seq, callback = heappop(timers)
            if when > self._now:
                self._now = when
            callback()
        self._now = deadline

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run when the clock reaches ``when``."""
        self._seq += 1
        now = self._now
        # max(when, now), without the builtin call: a past deadline fires
        # at the next advance.
        heappush(self._timers,
                 (now if now > when else when, self._seq, callback))

    def call_after(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` microseconds from now."""
        self.call_at(self._now + delay, callback)
