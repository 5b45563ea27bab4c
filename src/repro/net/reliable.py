"""The reliable transport: timeout, retry, backoff, failover over lossy QPs.

:class:`ReliableQP` mirrors the :class:`~repro.net.qp.QueuePair` verb
surface (``post_read`` / ``post_write`` / ``post_read_sg`` /
``post_write_sg`` / ``wait``) so every kernel routes remote IO through it
unchanged, but survives the wire of :class:`~repro.net.faults.FaultPlan`.
Kernels open their queues with :func:`open_qp`, which picks a raw
:class:`~repro.net.qp.QueuePair` on a perfect wire and a
:class:`ReliableQP` when a fault plan is set. The transport:

* every payload carries an end-to-end CRC-32; a corrupt arrival is
  NAK'd at completion time;
* every attempt is guarded by a completion timeout on the *simulated*
  clock; drops, QP stalls, link flaps, and dead nodes all surface as a
  timeout at ``issue + timeout_us``;
* failed attempts are retried with capped exponential backoff
  (:class:`~repro.net.faults.RetryPolicy`), each retransmission paying
  full wire occupancy on the QP — benchmarks see the real cost of a
  lossy fabric, not an idealised one;
* ``failover_after`` consecutive failures on one QP move the verb (and
  all subsequent traffic) to a sibling QP, the standard RDMA recovery
  from a QP wedged in an error state.

A verb that exhausts ``max_attempts`` raises
:class:`~repro.net.faults.TransportError` (a
:class:`~repro.mem.remote.NodeFailedError`), so kernels' degraded-mode
paths treat a persistent outage exactly like a dead memory node.

The transport owns the data path: remote bytes move only on the attempt
the fault plan lets through, so a dropped or corrupted WRITE leaves the
memory node untouched until its retransmission lands. Canonical metrics
(``net.ops``, ``net.retry``, ``net.timeout``, ``net.corrupt_detected``,
``net.failover``, ``net.giveup``) land in the injected registry.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from repro.common.clock import Clock
from repro.mem.remote import NodeFailedError
from repro.net.faults import (
    FaultPlan,
    RetryPolicy,
    TransportError,
    checksum,
)
from repro.net.latency import LatencyModel
from repro.net.qp import Completion, NetStats, QueuePair
from repro.obs.names import NET_RELIABILITY_KEYS
from repro.obs.tracer import NULL_TRACER


class ReliableQP:
    """Retry/timeout/backoff/failover wrapper over sibling queue pairs.

    ``qps`` is an ordered list of underlying :class:`QueuePair` siblings
    sharing one clock, latency model, remote, and byte accounting; the
    first is the primary. All verb timing — including every
    retransmission and backoff gap — is charged to the simulated clock
    through the completion time the caller waits on.
    """

    def __init__(
        self,
        name: str,
        clock: Clock,
        model: LatencyModel,
        remote,
        qps: Sequence[QueuePair],
        plan: Optional[FaultPlan] = None,
        policy: Optional[RetryPolicy] = None,
        registry=None,
        tracer=NULL_TRACER,
    ) -> None:
        if not qps:
            raise ValueError("need at least one underlying queue pair")
        self.name = name
        self._clock = clock
        self._model = model
        self._remote = remote
        self._qps: List[QueuePair] = list(qps)
        self._active = 0
        self._plan = plan
        self._policy = RetryPolicy.coerce(policy)
        self._registry = registry
        self.tracer = tracer
        #: Total verbs issued through this transport.
        self.ops = 0
        self._ops_counter = None
        if registry is not None:
            for key in sorted(NET_RELIABILITY_KEYS):
                registry.counter(key)
            self._ops_counter = registry.counter("net.ops")
        self._inflight: List[Completion] = []
        subscribe = getattr(remote, "add_failure_listener", None)
        self._listening = subscribe is not None
        if self._listening:
            subscribe(self._on_remote_failure)

    # -- introspection -------------------------------------------------------

    @property
    def active_qp(self) -> QueuePair:
        """The sibling currently carrying traffic (failover is sticky)."""
        return self._qps[self._active]

    # -- plumbing ------------------------------------------------------------

    def _add(self, metric: str, amount: int = 1) -> None:
        if self._registry is not None:
            self._registry.add(metric, amount)

    def _on_remote_failure(self) -> None:
        now = self._clock.now
        for completion in self._inflight:
            if completion.time > now:
                completion.failed = True
        self._inflight = []

    def _finish(self, completion: Completion,
                on_complete: Optional[Callable[[Completion], None]]) -> None:
        if self._listening:
            now = self._clock.now
            self._inflight = [c for c in self._inflight if c.time > now]
            self._inflight.append(completion)
        if on_complete is None:
            return

        def fire() -> None:
            if not completion.failed:
                on_complete(completion)

        self._clock.call_at(completion.time, fire)

    def _deliver(self, offset: int, size: int, data: Optional[bytes],
                 sg: Optional[Sequence[Tuple[int, Any]]]) -> Optional[bytes]:
        """Move a verb's bytes on the attempt that gets through: a WRITE
        stores ``data`` (or every ``sg`` piece) and returns ``None``, a
        READ returns what the remote holds."""
        remote = self._remote
        if sg is None:
            if data is None:
                return remote.read_bytes(offset, size)
            remote.write_bytes(offset, data)
            return None
        if data is None:
            return b"".join(remote.read_bytes(off, length)
                            for off, length in sg)
        for off, piece in sg:
            remote.write_bytes(off, piece)
        return None

    # -- the retry state machine ---------------------------------------------

    def _transact(
        self,
        direction: str,
        size: int,
        segments: int,
        offset: int,
        data: Optional[bytes],
        sg: Optional[Sequence[Tuple[int, Any]]],
        on_complete: Optional[Callable[[Completion], None]],
    ) -> Completion:
        """Run one verb through the fault plan, retrying as the policy
        says. A READ passes ``data=None``; a WRITE passes its wire image
        (``sg`` carries the pieces of a scatter-gather verb)."""
        policy = self._policy
        plan = self._plan
        post_overhead = self._model.rdma_post_overhead
        self.ops += 1
        if self._ops_counter is not None:
            self._ops_counter.value += 1
        span_start = self._clock.now
        at: Optional[float] = None  # None => post now; else scheduled retry
        consecutive = 0
        detect = span_start
        for attempt in range(policy.max_attempts):
            qp = self._qps[self._active]
            when = qp.charge_attempt(size, direction, at=at,
                                     segments=segments, offset=offset)
            post_time = self._clock.now if at is None else at + post_overhead

            failure: Optional[str] = None
            done = when
            payload: Optional[bytes] = None
            fault = (plan.draw(qp.name, direction, size, post_time, attempt)
                     if plan is not None else None)
            try:
                if fault is None:
                    payload = self._deliver(offset, size, data, sg)
                elif fault.kind == "corrupt":
                    # End-to-end integrity: damage the wire image of the
                    # true payload; the receiver's CRC rejects it at
                    # completion time (a NAK, not a timeout).
                    true = (self._deliver(offset, size, None, sg)
                            if data is None else data)
                    wire = plan.corrupt_payload(true)
                    if true and checksum(wire) != checksum(true):
                        failure, detect = "corrupt", when
                    else:
                        # Nothing to damage: the request itself is lost.
                        failure, detect = "timeout", post_time + policy.timeout_us
                elif fault.kind == "delay":
                    done = when + fault.extra_us
                    if done - post_time > policy.timeout_us:
                        # Arrived after the issuer gave up: discarded.
                        failure = "timeout"
                        detect = post_time + policy.timeout_us
                    else:
                        payload = self._deliver(offset, size, data, sg)
                else:  # drop / stall / flap: no response, ever.
                    failure, detect = "timeout", post_time + policy.timeout_us
            except NodeFailedError:
                # The node is down at issue time: the verb can only time
                # out. (A redundant backend absorbs member deaths before
                # they surface here.)
                failure, detect = "timeout", post_time + policy.timeout_us

            if failure is None:
                completion = Completion(done, direction, size, payload)
                completion.retries = attempt
                if attempt and self.tracer.enabled:
                    self.tracer.complete(
                        "net.reliable", "net", span_start,
                        done - span_start,
                        {"qp": self.name, "op": direction,
                         "retries": attempt})
                self._finish(completion, on_complete)
                return completion

            # One failed attempt: count it, maybe fail over, back off.
            self._add("net.timeout" if failure == "timeout"
                      else "net.corrupt_detected")
            if self.tracer.enabled:
                self.tracer.instant(
                    f"net.{failure}", "net", detect,
                    {"qp": qp.name, "op": direction, "attempt": attempt})
            consecutive += 1
            if attempt + 1 >= policy.max_attempts:
                break
            if (consecutive >= policy.failover_after
                    and len(self._qps) > 1):
                self._active = (self._active + 1) % len(self._qps)
                consecutive = 0
                self._add("net.failover")
                if self.tracer.enabled:
                    self.tracer.instant(
                        "net.failover", "net", detect,
                        {"from": qp.name,
                         "to": self._qps[self._active].name})
            self._add("net.retry")
            at = detect + policy.backoff(attempt + 1)

        # Retry budget exhausted: surface the outage, charging the full
        # detection latency of the final attempt to the caller.
        self._add("net.giveup")
        if self.tracer.enabled:
            self.tracer.instant("net.giveup", "net", detect,
                                {"qp": self.name, "op": direction})
        self._clock.advance_to(detect)
        raise TransportError(
            f"{self.name}: {direction} of {size} B gave up after "
            f"{policy.max_attempts} attempts")

    # -- verbs ---------------------------------------------------------------

    def post_read(
        self,
        remote_offset: int,
        size: int,
        on_complete: Optional[Callable[[Completion], None]] = None,
    ) -> Completion:
        """Reliable one-sided READ; mirrors ``QueuePair.post_read``."""
        return self._transact("read", size, 1, remote_offset, None, None,
                              on_complete)

    def post_write(
        self,
        remote_offset: int,
        data: bytes,
        on_complete: Optional[Callable[[Completion], None]] = None,
    ) -> Completion:
        """Reliable one-sided WRITE; the store is only touched by the
        attempt that actually gets through the wire."""
        return self._transact("write", len(data), 1, remote_offset, data,
                              None, on_complete)

    def post_read_sg(
        self,
        segments: Sequence[Tuple[int, int]],
        on_complete: Optional[Callable[[Completion], None]] = None,
    ) -> Completion:
        """Reliable scatter-gather READ (``[(remote_offset, size)]``)."""
        if not segments:
            raise ValueError("empty scatter-gather list")
        total = sum(size for _off, size in segments)
        return self._transact("read", total, len(segments), segments[0][0],
                              None, segments, on_complete)

    def post_write_sg(
        self,
        segments: Sequence[Tuple[int, bytes]],
        on_complete: Optional[Callable[[Completion], None]] = None,
    ) -> Completion:
        """Reliable scatter-gather WRITE (``[(remote_offset, data)]``)."""
        if not segments:
            raise ValueError("empty scatter-gather list")
        total = sum(len(data) for _off, data in segments)
        return self._transact(
            "write", total, len(segments), segments[0][0],
            b"".join(data for _off, data in segments), segments,
            on_complete)

    # -- waiting -------------------------------------------------------------

    def wait(self, completion: Completion) -> Completion:
        """Block (advance simulated time) until ``completion`` arrives;
        raises :class:`~repro.mem.remote.NodeFailedError` if the node
        died with the operation in flight."""
        self._clock.advance_to(completion.time)
        if completion.failed:
            raise NodeFailedError(
                f"{self.name}: remote node failed with {completion.op} "
                "in flight")
        return completion


def open_qp(
    name: str,
    clock: Clock,
    model: LatencyModel,
    remote,
    stats: NetStats,
    plan: Optional[FaultPlan] = None,
    policy: Optional[RetryPolicy] = None,
    registry=None,
    tracer=NULL_TRACER,
    fabric=None,
    extra_completion_delay: float = 0.0,
) -> Union[QueuePair, ReliableQP]:
    """Open one kernel queue named ``name``.

    With no fault ``plan`` this is a raw :class:`QueuePair` (the perfect
    wire of the original model, byte-for-byte unchanged). With a plan it
    is a :class:`ReliableQP` riding ``plan`` with retry ``policy`` over
    that QP and a ``<name>.alt`` sibling to fail over to. Both siblings
    share ``stats``, ``tracer``, ``fabric`` and the completion delay.
    """
    def raw(qp_name: str) -> QueuePair:
        return QueuePair(qp_name, clock, model, remote, stats,
                         extra_completion_delay=extra_completion_delay,
                         tracer=tracer, fabric=fabric)

    if plan is None:
        return raw(name)
    return ReliableQP(name, clock, model, remote,
                      qps=[raw(name), raw(f"{name}.alt")], plan=plan,
                      policy=policy, registry=registry, tracer=tracer)
