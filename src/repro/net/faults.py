"""Network fault injection: deterministic verb-level fault plans.

DiLOS §5.1 defers multi-node fault tolerance to future work, and the
fabric model in :mod:`repro.net.qp` is a perfect wire: every posted verb
completes, on time, with the bytes it carried. Real interconnects under
production traffic are not — RoCE fabrics drop and reorder under PFC
storms, optics flap, and bit errors slip past link-level CRC often enough
that end-to-end checks matter at scale. A :class:`FaultPlan` makes those
behaviors first-class in the simulation so recovery paths can be built
and measured instead of assumed.

A plan is consulted once per transmission attempt by the reliable
transport (:class:`repro.net.reliable.ReliableQP`) and returns at most
one :class:`Fault`:

* ``drop``  — the request (or its response) is lost; the sender only
  learns via its completion timeout;
* ``corrupt`` — the payload is damaged on the wire; the end-to-end
  checksum catches it at completion time;
* ``delay`` — the completion is late by ``extra_us`` (congestion, PFC
  pause); late beyond the timeout it is treated as lost;
* ``stall`` — the targeted QP is unresponsive for a window (e.g. a QP
  in RTS->SQD limbo); every verb in the window times out;
* ``flap`` — the whole link is down for a window; ditto.

Every decision is drawn from one seeded ``repro.common.rng`` stream in
verb-issue order, so a seeded workload under a seeded plan is bit-for-bit
reproducible. ``script=[...]`` replaces the random stream entirely with
an explicit per-attempt schedule, which the deterministic timing tests
use to assert exact retry timestamps.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.common.rng import make_rng
from repro.common.specparse import parse_kv_spec
from repro.mem.remote import NodeFailedError


def _parse_flap(value: str) -> Tuple[float, float]:
    """``"PERIOD:DOWN"`` (µs) -> ``(flap_period_us, flap_down_us)``."""
    period, colon, down = value.partition(":")
    if not colon or not period or not down:
        raise ValueError("expected PERIOD:DOWN in microseconds, "
                         "e.g. 2000:100")
    return float(period), float(down)


class TransportError(NodeFailedError):
    """The reliable transport exhausted its retry budget on one verb.

    Subclasses :class:`~repro.mem.remote.NodeFailedError` so every
    existing degraded-mode path (fetch rollback, cleaner retry-next-pass,
    prefetch drop) handles a persistent network outage exactly like a
    dead memory node.
    """


def checksum(payload: bytes) -> int:
    """The end-to-end wire checksum (CRC-32) guarding every payload."""
    return zlib.crc32(payload) & 0xFFFFFFFF


class Fault:
    """One injected fault on one transmission attempt."""

    __slots__ = ("kind", "extra_us")

    def __init__(self, kind: str, extra_us: float = 0.0) -> None:
        if kind not in ("drop", "corrupt", "delay", "stall", "flap"):
            raise ValueError(f"unknown fault kind {kind!r}")
        self.kind = kind
        #: Added completion delay for ``delay`` faults.
        self.extra_us = extra_us

    def __repr__(self) -> str:
        if self.kind == "delay":
            return f"Fault(delay, +{self.extra_us:.1f}us)"
        return f"Fault({self.kind})"


#: Script entries: ``None`` (clean attempt), a fault kind string, a
#: ``("delay", extra_us)`` pair, or a ready-made :class:`Fault`.
ScriptEntry = Union[None, str, Tuple[str, float], Fault]


class FaultPlan:
    """A deterministic schedule of verb-level network faults.

    Probabilistic faults (``drop``/``corrupt``/``delay``) are drawn from
    the seeded rng per attempt; window faults (``flap``/``stall``) are
    pure functions of simulated time and hit every attempt whose post
    falls inside a window. ``max_consecutive`` caps how many *random*
    faults may hit consecutive attempts of a single verb, which lets
    property tests guarantee completion without shrinking probabilities
    to homeopathy; window faults are real outages and are never capped.
    """

    def __init__(
        self,
        seed: int = 0,
        drop: float = 0.0,
        corrupt: float = 0.0,
        delay: float = 0.0,
        delay_us: float = 40.0,
        flap_period_us: float = 0.0,
        flap_down_us: float = 0.0,
        max_consecutive: Optional[int] = None,
        script: Optional[Sequence[ScriptEntry]] = None,
    ) -> None:
        for name, p in (("drop", drop), ("corrupt", corrupt),
                        ("delay", delay)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} probability {p} outside [0, 1]")
        if drop + corrupt + delay > 1.0:
            raise ValueError("fault probabilities sum past 1.0")
        if delay_us < 0.0:
            raise ValueError("delay_us must be non-negative")
        if (flap_period_us or flap_down_us) \
                and not 0.0 < flap_down_us < flap_period_us:
            # A period without a down window (or the reverse) would
            # never take the link down: reject it rather than ignore it.
            raise ValueError("a periodic flap needs "
                             "0 < flap_down_us < flap_period_us")
        if max_consecutive is not None and max_consecutive < 1:
            raise ValueError("max_consecutive must be >= 1")
        self.seed = seed
        self.drop = drop
        self.corrupt = corrupt
        self.delay = delay
        self.delay_us = delay_us
        self.flap_period_us = flap_period_us
        self.flap_down_us = flap_down_us
        self.max_consecutive = max_consecutive
        self._rng = make_rng(seed)
        self._script: Optional[List[ScriptEntry]] = (
            list(script) if script is not None else None)
        #: Extra one-shot link-down windows, ``(start_us, end_us)``.
        self._flap_windows: List[Tuple[float, float]] = []
        #: Per-QP stall windows, ``name -> [(start_us, end_us)]``.
        self._stalls: Dict[str, List[Tuple[float, float]]] = {}
        #: Injection census, ``kind -> count`` (introspection/tests).
        self.injected: Dict[str, int] = {}

    # -- construction helpers ------------------------------------------------

    @classmethod
    def coerce(cls, value) -> Optional["FaultPlan"]:
        """Normalize a config knob: ``None``, a plan, or a spec string."""
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.from_spec(value)
        raise TypeError(f"cannot build a FaultPlan from {value!r}")

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a ``--net-faults`` spec: comma-separated ``key=value``.

        Keys: ``drop``, ``corrupt``, ``delay`` (probabilities),
        ``delay_us``, ``seed``, ``max_consecutive``, and
        ``flap=PERIOD:DOWN`` (microseconds, ``0 < DOWN < PERIOD``).
        Example::

            drop=0.01,corrupt=0.005,delay=0.02,delay_us=30,seed=7,flap=2000:100
        """
        casts = {
            "drop": float, "corrupt": float, "delay": float,
            "delay_us": float, "seed": int, "max_consecutive": int,
            "flap": _parse_flap,
        }
        kwargs: Dict[str, object] = {}
        for key, value in parse_kv_spec(spec, casts,
                                        what="--net-faults").items():
            if key == "flap":
                kwargs["flap_period_us"], kwargs["flap_down_us"] = value
            else:
                kwargs[key] = value
        return cls(**kwargs)  # type: ignore[arg-type]

    def spec(self) -> str:
        """The round-trippable spec string for this plan's scalar knobs."""
        parts = [f"seed={self.seed}"]
        for key in ("drop", "corrupt", "delay"):
            value = getattr(self, key)
            if value:
                parts.append(f"{key}={value:g}")
        if self.delay:
            parts.append(f"delay_us={self.delay_us:g}")
        if self.flap_period_us:
            parts.append(f"flap={self.flap_period_us:g}:{self.flap_down_us:g}")
        if self.max_consecutive is not None:
            parts.append(f"max_consecutive={self.max_consecutive}")
        return ",".join(parts)

    # -- window scheduling ---------------------------------------------------

    def flap(self, start_us: float, duration_us: float) -> None:
        """Schedule a one-shot link-down window ``[start, start + dur)``."""
        if duration_us <= 0.0:
            raise ValueError("flap duration must be positive")
        self._flap_windows.append((start_us, start_us + duration_us))

    def stall(self, qp_name: str, start_us: float,
              duration_us: float) -> None:
        """Stall one QP (by name) for ``[start, start + dur)``."""
        if duration_us <= 0.0:
            raise ValueError("stall duration must be positive")
        self._stalls.setdefault(qp_name, []).append(
            (start_us, start_us + duration_us))

    def link_down(self, t: float) -> bool:
        """Is the link flapped at simulated time ``t``?"""
        if self.flap_period_us \
                and (t % self.flap_period_us) < self.flap_down_us:
            return True
        return any(start <= t < end for start, end in self._flap_windows)

    def stalled(self, qp_name: str, t: float) -> bool:
        """Is QP ``qp_name`` inside one of its stall windows at ``t``?"""
        return any(start <= t < end
                   for start, end in self._stalls.get(qp_name, ()))

    # -- the per-attempt decision --------------------------------------------

    def draw(self, qp_name: str, op: str, size: int, t: float,
             attempt: int) -> Optional[Fault]:
        """The fault (if any) hitting one transmission attempt.

        ``attempt`` is 0 for the first transmission of a verb and counts
        up across its retries; window faults always apply, random faults
        stop once ``attempt`` reaches ``max_consecutive``.
        """
        if self._script is not None:
            return self._next_scripted()
        # The window scans only run when the plan has windows at all.
        if self._stalls and self.stalled(qp_name, t):
            return self._note(Fault("stall"))
        if (self.flap_period_us or self._flap_windows) \
                and self.link_down(t):
            return self._note(Fault("flap"))
        if (self.max_consecutive is not None
                and attempt >= self.max_consecutive):
            return None
        roll = self._rng.random()
        if roll < self.drop:
            return self._note(Fault("drop"))
        if roll < self.drop + self.corrupt:
            return self._note(Fault("corrupt"))
        if roll < self.drop + self.corrupt + self.delay:
            extra = self._rng.uniform(0.5, 1.5) * self.delay_us
            return self._note(Fault("delay", extra_us=extra))
        return None

    def _next_scripted(self) -> Optional[Fault]:
        if not self._script:
            return None
        entry = self._script.pop(0)
        if entry is None:
            return None
        if isinstance(entry, Fault):
            return self._note(entry)
        if isinstance(entry, str):
            return self._note(Fault(entry))
        kind, extra = entry
        return self._note(Fault(kind, extra_us=extra))

    def _note(self, fault: Fault) -> Fault:
        self.injected[fault.kind] = self.injected.get(fault.kind, 0) + 1
        return fault

    # -- payload corruption ----------------------------------------------------

    def corrupt_payload(self, payload: bytes) -> bytes:
        """Damage one byte of ``payload`` (deterministically, via the
        plan rng). Empty payloads come back unchanged — the caller must
        treat a corrupt fault on an empty payload as a drop."""
        if not payload:
            return payload
        index = self._rng.randrange(len(payload))
        damaged = bytearray(payload)
        damaged[index] ^= 0xFF
        return bytes(damaged)


def coerce_fault_plan(
        value: Union[None, str, "FaultPlan"]) -> Optional["FaultPlan"]:
    """Normalize a ``net_faults`` config knob to a typed plan, once.

    The one shared parser for every kernel config: ``None`` stays ``None``
    (perfect wire), a ready :class:`FaultPlan` passes through, and a spec
    string such as ``"drop=0.01,corrupt=0.005,seed=7"`` is parsed by
    :meth:`FaultPlan.from_spec`. Config ``__post_init__`` hooks call this
    so a plan is parsed exactly once, at config construction, and the
    ``net_faults`` field carries a real ``Optional[FaultPlan]`` type
    everywhere downstream.
    """
    return FaultPlan.coerce(value)


def coerce_retry_policy(
        value: Union[None, "RetryPolicy"]) -> Optional["RetryPolicy"]:
    """Normalize a ``net_retry`` config knob: ``None`` (use the transport
    defaults when a plan is active) or a ready :class:`RetryPolicy`."""
    if value is None or isinstance(value, RetryPolicy):
        return value
    raise TypeError(f"cannot build a RetryPolicy from {value!r}")


class RetryPolicy:
    """Timeout, capped-exponential-backoff, and failover parameters.

    Retry ``k`` (1-based) is posted ``min(backoff_us * 2**(k-1),
    backoff_cap_us)`` after the failure of attempt ``k-1`` is detected
    — a lost attempt at its issue-time + ``timeout_us``, a corrupt one
    at its completion (checksum NAK). After ``failover_after``
    consecutive failures on one QP the transport switches to the next
    sibling QP. ``max_attempts`` total transmissions, then
    :class:`TransportError`.
    """

    __slots__ = ("timeout_us", "backoff_us", "backoff_cap_us",
                 "max_attempts", "failover_after")

    def __init__(self, timeout_us: float = 50.0, backoff_us: float = 10.0,
                 backoff_cap_us: float = 200.0, max_attempts: int = 8,
                 failover_after: int = 3) -> None:
        if timeout_us <= 0.0 or backoff_us < 0.0 or backoff_cap_us < 0.0:
            raise ValueError("timeouts and backoffs must be positive")
        if max_attempts < 1:
            raise ValueError("need at least one attempt")
        if failover_after < 1:
            raise ValueError("failover_after must be >= 1")
        self.timeout_us = timeout_us
        self.backoff_us = backoff_us
        self.backoff_cap_us = backoff_cap_us
        self.max_attempts = max_attempts
        self.failover_after = failover_after

    def backoff(self, retry_index: int) -> float:
        """Backoff before 1-based retry ``retry_index`` (capped)."""
        if retry_index < 1:
            raise ValueError("retries are 1-based")
        return min(self.backoff_us * (2.0 ** (retry_index - 1)),
                   self.backoff_cap_us)

    @classmethod
    def coerce(cls, value) -> "RetryPolicy":
        """Normalize a config knob: ``None`` (defaults) or a policy."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        raise TypeError(f"cannot build a RetryPolicy from {value!r}")

    def __repr__(self) -> str:
        return (f"RetryPolicy(timeout={self.timeout_us}us, "
                f"backoff={self.backoff_us}us cap {self.backoff_cap_us}us, "
                f"max_attempts={self.max_attempts}, "
                f"failover_after={self.failover_after})")
