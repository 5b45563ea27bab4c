"""The fault-tolerant replicated KV service (Aceso-style, ROADMAP item 4).

:class:`KvStoreService` is the paper-grade consumer of the redundancy
stack: a key-value front door whose *only* storage is a redundant
cluster backend (:class:`~repro.mem.cluster.ReplicatedMemory` or
:class:`~repro.mem.cluster.ParityStripedMemory`), reached through the
reliable transport so ``net_faults`` chaos genuinely hits the
replication wire. Three properties make it crash-consistent:

* **Quorum-acknowledged writes.** A SET/DEL is admitted only while
  enough members are up that the backend can either write-through or
  journal the miss (majority of replicas; ``k`` of ``k+1`` for parity).
  The quorum check runs *before* any store mutation and the
  :class:`~repro.net.reliable.ReliableQP` only touches the store on the
  attempt the fault plan lets through, so a rejected or given-up write
  leaves no partial state — an unacknowledged update can never surface.
* **Versioned, checksummed records.** Every record carries a 12-byte
  header (version, length, CRC-32). GETs and the :meth:`verify` audit
  compare what the backend returns against the acknowledged
  (version, crc); any regression increments ``kv.lost_updates`` — the
  counter the chaos suite requires to read 0.
* **Lease-based primary election.** One member holds a time-bounded
  lease on the simulated clock and fronts all requests. When it dies,
  requests are rejected (``kv.unavail_rejects``) until the lease
  provably lapsed — the split-brain guard — then the lowest-index live
  member whose journal is clean is elected (members still resilvering
  are skipped: ``kv.stale_candidates_skipped``). Failover latency and
  the unavailability window land in ``kv.failover_us``/``kv.unavail_us``.

All ``kv.*`` instruments live on the *backend's* registry, so
``cluster.metrics()`` (and the golden/perf digests of scenarios that
build a KV service) carry availability accounting next to the
``cluster.*``/``repair.*`` state it depends on. Nothing is registered
until a KV service is built, so pre-existing digests are untouched.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple
from zlib import crc32

from repro.apps.api import Request, Response
from repro.common.rng import zipf_weights
from repro.common.units import PAGE_SIZE
from repro.mem.cluster import ParityStripedMemory, ReplicatedMemory
from repro.mem.remote import NodeFailedError
from repro.net.faults import RetryPolicy, coerce_fault_plan
from repro.net.qp import NetStats, QueuePair
from repro.net.reliable import ReliableQP
from repro.obs.tracer import NULL_TRACER

#: CPU cycles charged per KV command (dispatch + hash + header codec);
#: a shade above redis' COMMAND_CYCLES for the version/CRC bookkeeping.
KV_OP_CYCLES = 700

#: Record header: version (4 B LE) | value length (4 B LE) | CRC-32 (4 B LE).
_HEADER_BYTES = 12

#: Default lease duration in simulated µs.
DEFAULT_LEASE_US = 400.0

#: Counters pre-registered when the service attaches, so snapshots taken
#: before the first request carry the full (zeroed) key set.
_KV_COUNTERS = (
    "kv.gets",
    "kv.sets",
    "kv.deletes",
    "kv.misses",
    "kv.rejected_writes",
    "kv.unavail_rejects",
    "kv.failovers",
    "kv.handoffs",
    "kv.lease_renewals",
    "kv.lost_updates",
    "kv.stale_candidates_skipped",
    "kv.failover_us",
    "kv.unavail_us",
)


def _pack_header(version: int, length: int, crc: int) -> bytes:
    return (version.to_bytes(4, "little") + length.to_bytes(4, "little")
            + crc.to_bytes(4, "little"))


def _unpack_header(data: bytes) -> Tuple[int, int, int]:
    return (int.from_bytes(data[0:4], "little"),
            int.from_bytes(data[4:8], "little"),
            int.from_bytes(data[8:12], "little"))


def _value(rng: random.Random, size: int) -> bytes:
    """A seeded value with a recognizable prefix (the redis recipe, so
    cross-service tooling can eyeball either keyspace)."""
    seed = rng.randrange(1 << 30)
    prefix = seed.to_bytes(4, "little")
    body = bytes(((seed >> (8 * (j % 4))) + j * 131) % 256
                 for j in range(min(size - 4, 60)))
    return (prefix + body).ljust(size, b"\xA5")[:size]


class KvStoreService:
    """A replicated KV store with lease-based failover as a Service."""

    name = "kv"

    def __init__(self, system, n_keys: int = 0, value_bytes: int = 192,
                 skew: float = 0.0, write_fraction: float = 0.25,
                 seed: int = 29, lease_us: float = DEFAULT_LEASE_US,
                 net_faults=None, net_retry=None) -> None:
        backend = getattr(system, "node", None)
        if not isinstance(backend, (ReplicatedMemory, ParityStripedMemory)):
            raise ValueError(
                "the kv service needs a redundant cluster backend "
                "(replicated:N or parity:K+1), not "
                f"{type(backend).__name__}")
        if lease_us <= 0:
            raise ValueError("lease_us must be positive")
        self.system = system
        self.backend = backend
        self.clock = system.clock
        self.registry = backend.registry
        self.lease_us = float(lease_us)
        self.n_keys = n_keys
        self.value_bytes = value_bytes
        self.skew = skew
        self.write_fraction = write_fraction
        self.seed = seed
        self.max_value_bytes = PAGE_SIZE - _HEADER_BYTES
        self._weights = (zipf_weights(n_keys, skew)
                         if n_keys and skew > 0.0 else None)
        # One backend slot per key; the acknowledged (version, crc) and
        # length of every live key — the ground truth GET/verify audit
        # against. A deleted key keeps its slot (tombstoned) and its
        # version chain, so a re-set can never regress the version.
        self._slots: Dict[bytes, int] = {}
        self._versions: Dict[bytes, int] = {}
        self._expected: Dict[bytes, Tuple[int, int]] = {}
        self._lengths: Dict[bytes, int] = {}
        # Lease state: the member fronting requests, until when, and —
        # when it died — since when the service has been dark.
        members = backend.member_nodes()
        if isinstance(backend, ParityStripedMemory):
            self._candidates: List[int] = list(range(backend.k))
            self.write_quorum = backend.k
        else:
            self._candidates = list(range(len(members)))
            self.write_quorum = len(members) // 2 + 1
        self._member_nodes = members
        self._primary: Optional[int] = None
        self._lease_expires = 0.0
        self._died_at: Optional[float] = None
        for member, node in enumerate(members):
            node.add_failure_listener(
                lambda m=member: self._on_member_failed(m))
        # The replication wire: reliable verbs over sibling QPs so drops,
        # corruption, stalls, and flaps hit real KV traffic — and a
        # dropped WRITE provably leaves the store untouched.
        tracer = getattr(getattr(system, "obs", None), "tracer", NULL_TRACER)
        self.net = NetStats()
        qps = [QueuePair(f"kv.qp{i}", system.clock, system.model, backend,
                         self.net, tracer=tracer) for i in range(2)]
        self.qp = ReliableQP("kv", system.clock, system.model, backend, qps,
                             plan=coerce_fault_plan(net_faults),
                             policy=RetryPolicy.coerce(net_retry),
                             registry=self.registry, tracer=tracer)
        for name in _KV_COUNTERS:
            self.registry.counter(name)
        self._gets = self.registry.counter("kv.gets")
        self._sets = self.registry.counter("kv.sets")
        #: The per-command CPU charge, in µs.
        self._op_us = system.model.cycles(KV_OP_CYCLES)
        self.registry.gauge("kv.primary",
                            lambda: float(-1 if self._primary is None
                                          else self._primary))
        self.registry.gauge("kv.keys", lambda: float(len(self._expected)))
        self._handlers = {
            "get": self._get,
            "set": self._set,
            "del": self._delete,
        }

    # -- lease-based primary election ----------------------------------------

    def _on_member_failed(self, member: int) -> None:
        if member == self._primary:
            self._died_at = self.clock.now

    def _ensure_primary(self) -> Optional[int]:
        """The member currently holding the lease, electing/renewing as
        needed; ``None`` while the service is (correctly) unavailable."""
        now = self.clock.now
        primary = self._primary
        if primary is not None and not self._member_nodes[primary].failed:
            if self.backend.is_syncing(primary):
                # The holder is back up but still resilvering: hand the
                # lease to a clean member rather than serve stale state.
                return self._elect(now, handoff=True)
            if now + self.lease_us / 2.0 >= self._lease_expires:
                self._lease_expires = now + self.lease_us
                self.registry.add("kv.lease_renewals")
            self._died_at = None
            return primary
        if primary is not None and now < self._lease_expires:
            # Split-brain guard: the holder is dead but its lease has not
            # provably lapsed — nobody else may serve yet.
            return None
        return self._elect(now, handoff=False)

    def _elect(self, now: float, handoff: bool) -> Optional[int]:
        backend = self.backend
        journal = backend.journal
        chosen: Optional[int] = None
        for member in self._candidates:
            if self._member_nodes[member].failed:
                continue
            if backend.is_syncing(member) or journal.dirty_count(member) > 0:
                self.registry.add("kv.stale_candidates_skipped")
                continue
            chosen = member
            break
        previous = self._primary
        self._primary = chosen
        if chosen is None:
            return None
        self._lease_expires = now + self.lease_us
        if handoff:
            self.registry.add("kv.handoffs")
        elif previous is not None:
            self.registry.add("kv.failovers")
            if self._died_at is not None:
                self.registry.add("kv.failover_us",
                                  int(now - self._died_at))
        if self._died_at is not None:
            self.registry.add("kv.unavail_us", int(now - self._died_at))
        self._died_at = None
        return chosen

    # -- quorum ---------------------------------------------------------------

    def _have_quorum(self) -> bool:
        """Can the backend journal this write on enough members that it
        survives the next single failure? Checked before any mutation —
        no simulated time passes between the check and the fan-out, so
        membership cannot change in between."""
        return self.backend.live_count() >= self.write_quorum

    # -- the Service protocol --------------------------------------------------

    def handle(self, request: Request) -> Response:
        handler = self._handlers.get(request.op)
        if handler is None:
            return Response.fail(f"unknown op {request.op!r}; "
                                 f"have {sorted(self._handlers)}")
        self.system.cpu(self._op_us)
        if self._ensure_primary() is None:
            self.registry.add("kv.unavail_rejects")
            if request.op != "get":
                self.registry.add("kv.rejected_writes")
            return Response.fail("kv unavailable: no primary lease")
        try:
            return handler(request)
        except NodeFailedError as exc:
            # Transport gave up or the backend lost its last clean copy
            # mid-verb. The reliable transport only mutates the store on
            # the attempt that lands, so nothing partial was acknowledged.
            if request.op != "get":
                self.registry.add("kv.rejected_writes")
            return Response.fail(f"kv {request.op} failed: {exc}")

    def sample_request(self, rng: random.Random) -> Request:
        """A seeded draw from the keyspace popularity model:
        GET-dominated with ``write_fraction`` SETs, Zipf-skewed keys
        when built with ``skew > 0`` (the redis sampler's shape)."""
        if not self.n_keys:
            raise ValueError("sample_request needs a populated keyspace "
                             "(build the service with n_keys > 0)")
        if self._weights is not None:
            index = rng.choices(range(self.n_keys),
                                weights=self._weights, k=1)[0]
        else:
            index = rng.randrange(self.n_keys)
        key = b"kv:%d" % index
        if self.write_fraction > 0.0 and rng.random() < self.write_fraction:
            return Request("set", key=key,
                           value=_value(rng, self.value_bytes))
        return Request("get", key=key)

    # -- handlers --------------------------------------------------------------

    def _set(self, request: Request) -> Response:
        value = request.value
        if len(value) > self.max_value_bytes:
            return Response.fail(
                f"value of {len(value)} B exceeds the record limit of "
                f"{self.max_value_bytes} B")
        if not self._have_quorum():
            self.registry.add("kv.rejected_writes")
            return Response.fail("kv set rejected: no write quorum")
        key = request.key
        slot = self._slots.get(key)
        if slot is None:
            slot = self.backend.alloc_slot()
            self._slots[key] = slot
        version = self._versions.get(key, 0) + 1
        crc = crc32(value) & 0xFFFFFFFF
        record = _pack_header(version, len(value), crc) + value
        self.qp.wait(self.qp.post_write(self.backend.slot_offset(slot),
                                        record))
        # Acknowledged: the record is journaled on a quorum (the backend
        # wrote it through to every live member and journaled the rest).
        self._versions[key] = version
        self._expected[key] = (version, crc)
        self._lengths[key] = len(value)
        self._sets.value += 1
        return Response()

    def _get(self, request: Request) -> Response:
        key = request.key
        expected = self._expected.get(key)
        if expected is None:
            self.registry.add("kv.misses")
            return Response.fail(f"no such key {key!r}")
        length = self._lengths[key]
        offset = self.backend.slot_offset(self._slots[key])
        completion = self.qp.wait(
            self.qp.post_read(offset, _HEADER_BYTES + length))
        data = completion.data
        value = bytes(data[_HEADER_BYTES:])
        mismatch = self._audit(key, data[:_HEADER_BYTES], value)
        if mismatch:
            self.registry.add("kv.lost_updates")
            return Response.fail(f"lost update on {key!r}: {mismatch}")
        self._gets.value += 1
        return Response(value=value)

    def _delete(self, request: Request) -> Response:
        key = request.key
        if key not in self._expected:
            self.registry.add("kv.misses")
            return Response(value=False)
        if not self._have_quorum():
            self.registry.add("kv.rejected_writes")
            return Response.fail("kv delete rejected: no write quorum")
        version = self._versions[key] + 1
        offset = self.backend.slot_offset(self._slots[key])
        self.qp.wait(self.qp.post_write(offset, _pack_header(version, 0, 0)))
        self._versions[key] = version
        del self._expected[key]
        del self._lengths[key]
        self.registry.add("kv.deletes")
        return Response(value=True)

    # -- audit -----------------------------------------------------------------

    def _audit(self, key: bytes, header: bytes, value: bytes) -> str:
        """Compare a record against its acknowledged state; returns the
        discrepancy (empty string = clean). A *newer* version than
        acknowledged is not a lost update — it would mean an unacked
        write surfaced, which the transport's no-partial-effect rule
        makes impossible — so only regressions count."""
        version, crc = self._expected[key]
        stored_version, stored_length, stored_crc = _unpack_header(header)
        if stored_version < version:
            return (f"version regressed to {stored_version} "
                    f"(acknowledged {version})")
        if stored_version == version:
            if stored_length != len(value) or stored_crc != crc:
                return "header does not match the acknowledged write"
            if crc32(value) & 0xFFFFFFFF != crc:
                return "payload checksum mismatch"
        return ""

    def verify(self) -> int:
        """Audit every acknowledged key straight off the backend (no
        fault plan): the end-of-run lost-update sweep. Returns the number
        of discrepancies found (also added to ``kv.lost_updates``)."""
        mismatches = 0
        for key in sorted(self._expected):
            length = self._lengths[key]
            offset = self.backend.slot_offset(self._slots[key])
            data = self.backend.read_bytes(offset, _HEADER_BYTES + length)
            if self._audit(key, data[:_HEADER_BYTES],
                           bytes(data[_HEADER_BYTES:])):
                mismatches += 1
        if mismatches:
            self.registry.add("kv.lost_updates", mismatches)
        return mismatches


def build_kv_service(system, n_keys: int = 64, value_bytes: int = 192,
                     skew: float = 0.0, write_fraction: float = 0.25,
                     seed: int = 29, lease_us: float = DEFAULT_LEASE_US,
                     net_faults=None, net_retry=None) -> KvStoreService:
    """Boot + populate one replicated KV service on ``system``.

    ``system`` must be booted on a redundant cluster backend
    (``backend="replicated:N"`` or ``"parity:K+1"``). Population is
    deterministic in ``seed`` and goes through the service's own write
    path (quorum check, reliable transport, version headers), so the
    populated state is exactly what ``n_keys`` acknowledged SETs leave.
    """
    service = KvStoreService(system, n_keys=n_keys, value_bytes=value_bytes,
                             skew=skew, write_fraction=write_fraction,
                             seed=seed, lease_us=lease_us,
                             net_faults=net_faults, net_retry=net_retry)
    rng = random.Random(seed)
    for i in range(n_keys):
        response = service.handle(Request("set", key=b"kv:%d" % i,
                                          value=_value(rng, value_bytes)))
        if not response.ok:
            raise RuntimeError(
                f"kv population failed on key {i}: {response.error}")
    return service


__all__ = [
    "DEFAULT_LEASE_US",
    "KV_OP_CYCLES",
    "KvStoreService",
    "build_kv_service",
]
