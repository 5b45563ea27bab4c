"""RDMA queue pairs with explicit wire occupancy.

A :class:`QueuePair` serializes its own operations (in-order delivery per QP,
as in RoCE): a small urgent request posted behind a large transfer waits for
the large transfer's wire time. This makes head-of-line blocking — the
problem DiLOS' shared-nothing communication module exists to avoid (§4.5) —
a *real, measurable* effect in the model rather than an assumed constant.

Timing of an operation of ``size`` bytes posted at time ``t``::

    issue  = t + post_overhead          (CPU: doorbell + WQE)
    start  = max(issue, wire_free)      (per-QP serialization point)
    wire   = start + size * per_byte + sg_overhead
    done   = wire + base_latency        (fabric propagation + remote NIC)

so a lone 4 KiB READ costs ``base + 4096 * per_byte`` (Figure 2), while a
pipelined stream of them is spaced ``4096 * per_byte`` apart (wire-limited).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.common.clock import Clock
from repro.mem.remote import NodeFailedError
from repro.net.latency import LatencyModel
from repro.obs.tracer import NULL_TRACER


class NetStats:
    """Wire-byte accounting shared by all queue pairs of one fabric:
    bytes and verb counts per direction (Figure 12's bandwidth comes
    from the byte totals)."""

    __slots__ = ("bytes_read", "bytes_written", "ops_read", "ops_write")

    def __init__(self) -> None:
        self.bytes_read = 0
        self.bytes_written = 0
        self.ops_read = 0
        self.ops_write = 0

    def record(self, size: int, direction: str) -> None:
        if direction == "read":
            self.bytes_read += size
            self.ops_read += 1
        elif direction == "write":
            self.bytes_written += size
            self.ops_write += 1
        else:
            raise ValueError(f"unknown direction {direction!r}")

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written


class Completion:
    """Handle for an in-flight one-sided operation."""

    __slots__ = ("time", "op", "size", "data", "failed", "retries")

    def __init__(self, time: float, op: str, size: int, data: Optional[bytes]) -> None:
        self.time = time
        self.op = op
        self.size = size
        #: READ payload (snapshotted when the remote NIC services the op).
        self.data = data
        #: Set when the remote node died with this op in flight: the
        #: response is lost, ``wait`` raises, callbacks never fire.
        self.failed = False
        #: Transmission attempts beyond the first (reliable transport).
        self.retries = 0


class QueuePair:
    """One RDMA QP: in-order, reliable, one-sided READ/WRITE/SG verbs.

    ``remote`` is any object with ``read_bytes(offset, size) -> bytes`` and
    ``write_bytes(offset, data)`` — in practice the memory node's registered
    region.
    """

    __slots__ = ("name", "_clock", "_model", "_remote", "_stats", "tracer",
                 "extra_completion_delay", "_wire_free", "posted",
                 "_inflight", "_listening", "_per_byte", "_read_base",
                 "_write_base", "_post_overhead", "_fabric")

    def __init__(
        self,
        name: str,
        clock: Clock,
        model: LatencyModel,
        remote,
        stats: NetStats,
        extra_completion_delay: float = 0.0,
        tracer=NULL_TRACER,
        fabric=None,
    ) -> None:
        self.name = name
        self._clock = clock
        self._model = model
        self._remote = remote
        self._stats = stats
        #: Trace sink for wire events (``net.read``/``net.write`` spans).
        self.tracer = tracer
        #: Additional delay applied to every completion; used for the
        #: DiLOS-TCP / AIFM-TCP emulation (+14,000 cycles, §6.2).
        self.extra_completion_delay = extra_completion_delay
        #: Optional :class:`~repro.net.topology.FabricPort`: when set,
        #: every verb additionally pays the contention delay of the rack
        #: links between this QP's compute node and the memory node that
        #: owns the target offset. ``None`` (the default) is the flat
        #: topology — the timing path is untouched, bit for bit.
        self._fabric = fabric
        self._wire_free = 0.0
        self.posted = 0
        # Model constants prebound once: every verb reads them, and the
        # model is immutable for the lifetime of the QP.
        self._per_byte = model.rdma_per_byte
        self._read_base = model.rdma_read_base
        self._write_base = model.rdma_write_base
        self._post_overhead = model.rdma_post_overhead
        # In-flight tracking so a mid-flight node crash is *observed* by
        # the issuer (a timeout/error), never silently absorbed. Only the
        # plain single-node remote announces failures; redundant cluster
        # backends mask member deaths themselves.
        self._inflight: List[Completion] = []
        subscribe = getattr(remote, "add_failure_listener", None)
        self._listening = subscribe is not None
        if self._listening:
            subscribe(self._on_remote_failure)

    # -- internal ---------------------------------------------------------

    def _schedule(self, wire_time: float, base: float,
                  at: Optional[float] = None,
                  offset: Optional[int] = None, size: int = 0) -> float:
        """Charge the wire for one transfer and return the completion time.

        With ``at=None`` the post happens *now*: the CPU is advanced past
        the doorbell/WQE overhead. A future ``at`` (reliable-transport
        retries, scheduled ahead on the simulated clock) charges the same
        posting overhead into the timeline without moving the clock.

        With a fabric port attached, the transfer additionally crosses
        the rack links toward the memory node owning ``offset``
        (queueing + store-and-forward serialization); the delay extends
        this QP's wire occupancy — in-order delivery per QP, so a verb
        stuck behind a congested trunk blocks its successors exactly
        like a large transfer does.
        """
        if at is None:
            self._clock.advance(self._post_overhead)
            at = self._clock.now
        else:
            at += self._post_overhead
        start = max(at, self._wire_free)
        wire_done = start + wire_time
        if self._fabric is not None:
            wire_done += self._fabric.charge(offset, size, start)
        self._wire_free = wire_done
        self.posted += 1
        return wire_done + base + self.extra_completion_delay

    def _register(self, completion: Completion,
                  on_complete: Optional[Callable[[Completion], None]]) -> None:
        self._track(completion)
        if on_complete is None:
            return

        def fire() -> None:
            if not completion.failed:
                on_complete(completion)

        self._clock.call_at(completion.time, fire)

    def _track(self, completion: Completion) -> None:
        if not self._listening:
            return
        now = self._clock.now
        self._inflight = [c for c in self._inflight if c.time > now]
        self._inflight.append(completion)

    def _on_remote_failure(self) -> None:
        """The remote node died: every response still on the wire is lost."""
        now = self._clock.now
        for completion in self._inflight:
            if completion.time > now:
                completion.failed = True
        self._inflight = []

    # -- wire charging ------------------------------------------------------

    def charge_attempt(self, size: int, direction: str,
                       at: Optional[float] = None,
                       segments: int = 1,
                       offset: Optional[int] = None) -> float:
        """Charge wire occupancy, byte accounting and the trace event for
        one transmission attempt without touching the remote store;
        returns the completion time. This QP's WRITE and scatter-gather
        verbs call it once they have moved the bytes;
        :class:`~repro.net.reliable.ReliableQP` uses it for every attempt
        (it owns the data path itself so that attempts the fault plan
        kills on the wire have no remote side effects). ``offset`` routes
        the attempt across the rack fabric when a port is attached."""
        if direction not in ("read", "write"):
            raise ValueError(f"unknown direction {direction!r}")
        wire = size * self._per_byte
        if segments > 1:
            wire += self._model.sg_overhead(segments)
        base = (self._read_base if direction == "read"
                else self._write_base)
        when = self._schedule(wire, base, at=at, offset=offset, size=size)
        self._stats.record(size, direction)
        if self.tracer.enabled:
            post = at if at is not None else self._clock.now
            args = {"qp": self.name, "bytes": size}
            if segments > 1:
                args["segments"] = segments
            self.tracer.complete(f"net.{direction}", "net", post,
                                 when - post, args)
        return when

    # -- verbs --------------------------------------------------------------

    def post_read(
        self,
        remote_offset: int,
        size: int,
        on_complete: Optional[Callable[[Completion], None]] = None,
    ) -> Completion:
        """One-sided READ of ``size`` bytes at ``remote_offset``."""
        data = self._remote.read_bytes(remote_offset, size)
        # The paging hot path: :meth:`_schedule` with ``at=None`` and
        # :meth:`NetStats.record`, written out in the same float order.
        clock = self._clock
        clock.advance(self._post_overhead)
        now = clock.now
        wire_free = self._wire_free
        start = wire_free if wire_free > now else now
        wire_done = start + size * self._per_byte
        if self._fabric is not None:
            wire_done += self._fabric.charge(remote_offset, size, start)
        self._wire_free = wire_done
        self.posted += 1
        when = wire_done + self._read_base + self.extra_completion_delay
        stats = self._stats
        stats.bytes_read += size
        stats.ops_read += 1
        if self.tracer.enabled:
            self.tracer.complete("net.read", "net", now, when - now,
                                 {"qp": self.name, "bytes": size})
        completion = Completion(when, "read", size, data)
        if self._listening or on_complete is not None:
            self._register(completion, on_complete)
        return completion

    def post_write(
        self,
        remote_offset: int,
        data: bytes,
        on_complete: Optional[Callable[[Completion], None]] = None,
    ) -> Completion:
        """One-sided WRITE of ``data`` to ``remote_offset``."""
        self._remote.write_bytes(remote_offset, data)
        when = self.charge_attempt(len(data), "write", offset=remote_offset)
        completion = Completion(when, "write", len(data), None)
        if self._listening or on_complete is not None:
            self._register(completion, on_complete)
        return completion

    def post_read_sg(
        self,
        segments: Sequence[Tuple[int, int]],
        on_complete: Optional[Callable[[Completion], None]] = None,
    ) -> Completion:
        """Scatter-gather READ: ``segments`` is ``[(remote_offset, size)]``.

        Returns a completion whose ``data`` is the segments' payloads
        concatenated in order. §6.3 observed vectors longer than three slow
        down sharply; the latency model charges that penalty.
        """
        if not segments:
            raise ValueError("empty scatter-gather list")
        payload = b"".join(
            self._remote.read_bytes(off, size) for off, size in segments)
        # SG lists are built per batch against one backend; the fabric
        # routes the whole vector by its first segment's home node.
        when = self.charge_attempt(len(payload), "read",
                                   segments=len(segments),
                                   offset=segments[0][0])
        completion = Completion(when, "read", len(payload), payload)
        self._register(completion, on_complete)
        return completion

    def post_write_sg(
        self,
        segments: Sequence[Tuple[int, bytes]],
        on_complete: Optional[Callable[[Completion], None]] = None,
    ) -> Completion:
        """Scatter-gather WRITE: ``segments`` is ``[(remote_offset, data)]``."""
        if not segments:
            raise ValueError("empty scatter-gather list")
        total = 0
        for off, data in segments:
            self._remote.write_bytes(off, data)
            total += len(data)
        when = self.charge_attempt(total, "write", segments=len(segments),
                                   offset=segments[0][0])
        completion = Completion(when, "write", total, None)
        self._register(completion, on_complete)
        return completion

    # -- waiting ------------------------------------------------------------

    def wait(self, completion: Completion) -> Completion:
        """Block (advance simulated time) until ``completion`` arrives.

        Raises :class:`~repro.mem.remote.NodeFailedError` when the remote
        node died while the operation was on the wire: the verb was
        issued against a live node but its response never arrived.
        """
        self._clock.advance_to(completion.time)
        if completion.failed:
            raise NodeFailedError(
                f"{self.name}: remote node failed with {completion.op} "
                "in flight")
        return completion
