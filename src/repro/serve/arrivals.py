"""Deterministic open-loop arrival processes on the simulated timeline.

Open-loop means the request stream is a property of the *world*, not of
the server: arrival ``i+1`` comes when the process says it comes, whether
or not arrival ``i`` has finished (the closed-loop harness drivers this
package replaces only ever had one request in flight). That distinction
is what makes tail latency meaningful — under overload an open-loop queue
grows without bound while a closed loop politely self-throttles.

Three processes, all pure functions of the :class:`~repro.serve.spec
.ServeSpec` (same spec, same stream, bit for bit), each listed with the
kind-specific keys it reads in :data:`repro.serve.spec.ARRIVALS`:

* ``poisson`` — memoryless arrivals at a constant mean rate; the
  classical serving baseline.
* ``bursty`` — a two-state MMPP (Markov-modulated Poisson process):
  exponentially distributed quiet/burst sojourns, each state a Poisson
  process at its own rate. Models flash crowds and thundering herds.
* ``diurnal`` — a sinusoidal rate between ``floor`` and the peak rate
  over ``period``, sampled by thinning. Models the day/night cycle at
  planetary scale (compressed onto the simulated clock).

Client ids are drawn per arrival from ``[0, clients)`` — a population of
a million simulated users is just a bigger modulus, which is the whole
trick that makes "millions of users" cheap.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from repro.serve.spec import ServeSpec


@dataclass(frozen=True)
class Arrival:
    """One open-loop arrival: a timestamp and the client that issued it."""

    t_us: float
    client_id: int


def _rate_per_us(rate_rps: float) -> float:
    return rate_rps / 1e6


def poisson_arrivals(spec: ServeSpec) -> Iterator[Arrival]:
    """Memoryless arrivals: exponential gaps at the spec's mean rate."""
    rng = random.Random(spec.seed)
    rate = _rate_per_us(spec.rate_rps)
    t = 0.0
    for _ in range(spec.requests):
        t += rng.expovariate(rate)
        yield Arrival(t, rng.randrange(spec.clients))


def bursty_arrivals(spec: ServeSpec) -> Iterator[Arrival]:
    """Two-state MMPP: quiet Poisson at ``rate``, bursts at
    ``burst_rate`` (default 10x) with exponential sojourn times of mean
    ``on`` / ``off`` (defaults 50 ms / 200 ms)."""
    rng = random.Random(spec.seed)
    quiet = _rate_per_us(spec.rate_rps)
    burst = _rate_per_us(spec.params.get("burst_rate",
                                         10.0 * spec.rate_rps))
    mean_on = spec.params.get("on", 50_000.0)
    mean_off = spec.params.get("off", 200_000.0)
    if mean_on <= 0 or mean_off <= 0:
        raise ValueError("bursty on/off sojourn means must be positive")
    t = 0.0
    bursting = False
    switch_at = rng.expovariate(1.0 / mean_off)
    emitted = 0
    while emitted < spec.requests:
        rate = burst if bursting else quiet
        gap = rng.expovariate(rate)
        while t + gap >= switch_at:
            # Re-draw the residual gap in the new state: the memoryless
            # property makes the truncated draw exponential again, so one
            # fresh sample at the state boundary is exact.
            t = switch_at
            bursting = not bursting
            mean = mean_on if bursting else mean_off
            switch_at = t + rng.expovariate(1.0 / mean)
            rate = burst if bursting else quiet
            gap = rng.expovariate(rate)
        t += gap
        yield Arrival(t, rng.randrange(spec.clients))
        emitted += 1


def diurnal_arrivals(spec: ServeSpec) -> Iterator[Arrival]:
    """Sinusoidal rate between ``floor`` (default rate/10) and the peak
    ``rate`` over ``period`` (default 1 simulated second), sampled by
    thinning a peak-rate Poisson stream."""
    rng = random.Random(spec.seed)
    peak = _rate_per_us(spec.rate_rps)
    floor = _rate_per_us(spec.params.get("floor", spec.rate_rps / 10.0))
    if floor > peak:
        raise ValueError("diurnal floor rate must not exceed the peak rate")
    period = spec.params.get("period", 1_000_000.0)
    if period <= 0:
        raise ValueError("diurnal period must be positive")
    mid = (peak + floor) / 2.0
    amp = (peak - floor) / 2.0
    t = 0.0
    emitted = 0
    while emitted < spec.requests:
        t += rng.expovariate(peak)
        rate_now = mid + amp * math.sin(2.0 * math.pi * t / period)
        if rng.random() * peak <= rate_now:
            yield Arrival(t, rng.randrange(spec.clients))
            emitted += 1


__all__ = ["Arrival", "bursty_arrivals", "diurnal_arrivals",
           "poisson_arrivals"]
