"""Online repair: degraded-write journaling, resilver, and scrub.

The cluster backends in :mod:`repro.mem.cluster` mask single-node
failures (replica failover, XOR reconstruction), but §5.1-style fault
tolerance is only *correct* if a failed node's eventual rejoin is
handled: the node comes back with its pre-crash contents, and every
slot written while it was down is silently stale. Rack-scale
disaggregation treats node churn and rebuild as steady-state, so this
module makes rejoin a first-class, correct-by-construction operation:

* :class:`RepairJournal` — while a member is down (or stale), the
  backend records every dirtied slot range here at page granularity.
  The read path consults the journal, so a stale page is *never*
  served from a rejoined member, even if ``MemoryNode.recover()`` is
  called directly.
* :class:`RepairManager` — drives two paced simulated-clock timers
  against one backend (in the style of ``PageManager._tick``):

  - the **resilver** replays journaled pages onto a rejoined member
    from the surviving replica (or by XOR reconstruction), charging
    wire time on its own :class:`~repro.net.qp.QueuePair` so rebuild
    bandwidth shows up in the timeline next to foreground traffic;
    when a member's journal drains it is promoted back to full
    service;
  - the **scrubber** periodically walks stripe rows / replica pairs
    verifying cross-replica agreement and the parity invariant
    (catching at-rest divergence the way the reliable transport's CRC
    catches wire corruption), repairing mismatches from the
    authoritative copy or quarantining them through the journal when
    the repair write fails.

* :class:`RepairPolicy` — the knobs (resilver period/batch, scrub
  period/batch), accepted everywhere as a spec string
  (``"resilver_period=200,resilver_batch=8,scrub_period=5000"``) via
  :func:`coerce_repair_policy` — the same pattern as ``net_faults``.

A backend used without a manager still rejoins correctly:
``backend.rejoin(node)`` falls back to an immediate synchronous
resilver (zero simulated time), and the journal protects reads in the
window where neither has run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Union

from repro.common.clock import Clock
from repro.common.specparse import parse_kv_spec
from repro.common.units import PAGE_SHIFT, PAGE_SIZE
from repro.net.latency import LatencyModel
from repro.net.qp import NetStats, QueuePair
from repro.obs.tracer import NULL_TRACER


class RepairJournal:
    """Per-member record of slot ranges dirtied while the member was
    unavailable or stale, kept at page granularity.

    Members are backend-defined keys (replica index, data-node index,
    the parity node). A page is *dirty* for a member when the member's
    physical contents may differ from the cluster's logical contents —
    reads must not be served from it, and the resilver must rewrite it
    before the member returns to full service.
    """

    def __init__(self) -> None:
        self._dirty: Dict[Any, Set[int]] = {}

    def record_range(self, member: Any, offset: int, size: int) -> None:
        """Mark every page overlapping ``[offset, offset + size)`` dirty."""
        if size <= 0:
            return
        first = offset >> PAGE_SHIFT
        last = (offset + size - 1) >> PAGE_SHIFT
        self._dirty.setdefault(member, set()).update(range(first, last + 1))

    def clear_covered(self, member: Any, offset: int, size: int) -> None:
        """Drop pages *fully* covered by ``[offset, offset + size)`` — a
        write that refreshed a whole page made that page clean again; a
        partial write leaves the rest of the page stale, so it stays."""
        pages = self._dirty.get(member)
        if not pages or size < PAGE_SIZE:
            return
        first_full = -(-offset // PAGE_SIZE)
        end_full = (offset + size) >> PAGE_SHIFT
        for page in range(first_full, end_full):
            pages.discard(page)
        if not pages:
            del self._dirty[member]

    def clear_page(self, member: Any, page: int) -> None:
        pages = self._dirty.get(member)
        if pages is None:
            return
        pages.discard(page)
        if not pages:
            del self._dirty[member]

    def clear_member(self, member: Any) -> None:
        self._dirty.pop(member, None)

    def is_dirty(self, member: Any, offset: int, size: int) -> bool:
        """Does any page overlapping ``[offset, offset + size)`` hold
        potentially stale bytes on ``member``?"""
        pages = self._dirty.get(member)
        if not pages or size <= 0:
            return False
        first = offset >> PAGE_SHIFT
        last = (offset + size - 1) >> PAGE_SHIFT
        return any(page in pages for page in range(first, last + 1))

    def dirty_pages(self, member: Any) -> List[int]:
        """The member's dirty pages, sorted (the resilver's work list)."""
        return sorted(self._dirty.get(member, ()))

    def dirty_count(self, member: Any) -> int:
        return len(self._dirty.get(member, ()))

    def total_dirty(self) -> int:
        """Dirty pages across every member — the backend's staleness."""
        return sum(len(pages) for pages in self._dirty.values())

    def members(self) -> List[Any]:
        """Members with at least one dirty page, sorted by repr for
        deterministic iteration."""
        return sorted(self._dirty, key=repr)

    def __repr__(self) -> str:
        inner = ", ".join(f"{member}:{len(pages)}"
                          for member, pages in sorted(self._dirty.items(),
                                                      key=lambda kv: repr(kv[0])))
        return f"RepairJournal({inner})"


@dataclass
class ScrubReport:
    """What one scrubbed stripe row / replica row turned up."""

    #: Member copies actually compared (0 = row unverifiable right now).
    members_checked: int = 0
    #: Copies that disagreed with the authoritative content.
    mismatches: int = 0
    #: Divergent copies rewritten from the authoritative content.
    repaired: int = 0
    #: Divergent copies that could not be repaired (the write failed);
    #: journaled so reads avoid them until a later resilver succeeds.
    quarantined: int = 0
    #: Wire bytes a real scrubber would have read for this row.
    bytes_read: int = 0


@dataclass
class RepairPolicy:
    """Pacing knobs for the resilver and the scrubber."""

    #: Simulated µs between resilver batches.
    resilver_period_us: float = 200.0
    #: Pages replayed per resilver tick (across all syncing members).
    resilver_batch_pages: int = 8
    #: Simulated µs between scrub batches; 0 disables the scrubber.
    scrub_period_us: float = 0.0
    #: Stripe/replica rows verified per scrub tick.
    scrub_batch_pages: int = 16

    #: Spec-string keys (``"resilver_period=200,scrub_period=5000"``).
    _SPEC_KEYS = {
        "resilver_period": ("resilver_period_us", float),
        "resilver_batch": ("resilver_batch_pages", int),
        "scrub_period": ("scrub_period_us", float),
        "scrub_batch": ("scrub_batch_pages", int),
    }

    def validate(self) -> "RepairPolicy":
        if self.resilver_period_us <= 0:
            raise ValueError("resilver period must be positive")
        if self.resilver_batch_pages <= 0:
            raise ValueError("resilver batch must be positive")
        if self.scrub_period_us < 0:
            raise ValueError("scrub period cannot be negative")
        if self.scrub_batch_pages <= 0:
            raise ValueError("scrub batch must be positive")
        return self

    @classmethod
    def from_spec(cls, spec: str) -> "RepairPolicy":
        """Parse ``"resilver_period=200,resilver_batch=8,scrub_period=5000,
        scrub_batch=16"``; every key optional, ``""`` means defaults.
        Grammar shared with every other spec knob
        (:func:`repro.common.specparse.parse_kv_spec`)."""
        casts = {key: cast for key, (_attr, cast) in cls._SPEC_KEYS.items()}
        policy = cls()
        for key, value in parse_kv_spec(spec, casts,
                                        what="repair spec").items():
            setattr(policy, cls._SPEC_KEYS[key][0], value)
        return policy.validate()


def coerce_repair_policy(
        value: Union[None, str, Dict[str, Any], RepairPolicy],
) -> Optional[RepairPolicy]:
    """Accept ``None``, a spec string, a kwargs dict, or a ready policy —
    the same coercion convention as ``net_faults``/``net_retry``."""
    if value is None or isinstance(value, RepairPolicy):
        return value.validate() if isinstance(value, RepairPolicy) else None
    if isinstance(value, str):
        return RepairPolicy.from_spec(value)
    if isinstance(value, dict):
        return RepairPolicy(**value).validate()
    raise TypeError(f"cannot coerce {value!r} to a RepairPolicy")


class _RepairSink:
    """Placeholder remote for the repair QP: the manager moves bytes
    through the backend itself and only charges wire occupancy."""


class RepairManager:
    """Background resilver + scrubber for one cluster backend.

    Attaches itself to the backend (``backend.repair``); the backend
    calls :meth:`notify_rejoin` from ``rejoin()`` and the manager paces
    the rebuild on the shared simulated clock. All repair traffic is
    charged on the manager's own queue pair (``self.qp``) so rebuild
    bandwidth appears in the timeline — and in ``net`` trace spans —
    alongside foreground traffic. Counters land in the backend's
    metrics registry under ``repair.*`` and ``scrub.*``.
    """

    def __init__(self, backend, clock: Clock,
                 policy: Union[None, str, Dict[str, Any], RepairPolicy] = None,
                 tracer=NULL_TRACER,
                 model: Optional[LatencyModel] = None) -> None:
        self.backend = backend
        self.clock = clock
        self.policy = (coerce_repair_policy(policy)
                       or RepairPolicy()).validate()
        self.tracer = tracer
        self.net = NetStats()
        self.qp = QueuePair(f"repair@{type(backend).__name__}", clock,
                            model or LatencyModel(), _RepairSink(),
                            self.net, tracer=tracer)
        self._registry = backend.registry
        # Pre-create every repair/scrub counter so snapshots taken
        # before the first tick already carry the full (zeroed) key set.
        for name in ("repair.pages_resilvered", "repair.bytes_resilvered",
                     "repair.source_stalls", "repair.nodes_promoted",
                     "scrub.pages_checked", "scrub.mismatches",
                     "scrub.repaired", "scrub.quarantined", "scrub.passes"):
            self._registry.counter(name)
        self._resilver_armed = False
        self._scrub_on = False
        self._scrub_armed = False
        self._scrub_cursor = 0
        self._sync_started: Dict[Any, float] = {}
        backend.attach_repair(self)
        if self.policy.scrub_period_us > 0:
            self.start_scrub()

    # -- resilver ------------------------------------------------------------

    def notify_rejoin(self, member: Any) -> None:
        """A member entered the syncing state: arm the resilver timer."""
        self._sync_started.setdefault(member, self.clock.now)
        if not self._resilver_armed:
            self._resilver_armed = True
            self.clock.call_after(self.policy.resilver_period_us,
                                  self._resilver_tick)

    def _resilver_tick(self) -> None:
        self._resilver_armed = False
        backend = self.backend
        registry = self._registry
        budget = self.policy.resilver_batch_pages
        for member in list(backend.syncing_members()):
            while budget > 0:
                pages = backend.journal.dirty_pages(member)
                if not pages:
                    break
                moved = backend.resilver_page(member, pages[0])
                if moved < 0:
                    # No clean source right now (e.g. the only survivor is
                    # down too); leave the page journaled and retry on the
                    # next tick.
                    registry.add("repair.source_stalls")
                    break
                self.qp.charge_attempt(moved, "read")
                self.qp.charge_attempt(PAGE_SIZE, "write")
                registry.add("repair.pages_resilvered")
                registry.add("repair.bytes_resilvered", PAGE_SIZE)
                budget -= 1
            if backend.journal.dirty_count(member) == 0:
                backend.promote(member)
                start = self._sync_started.pop(member, self.clock.now)
                if self.tracer.enabled:
                    self.tracer.complete("repair.resilver", "repair", start,
                                         self.clock.now - start,
                                         {"member": str(member)})
            if budget == 0:
                break
        if backend.syncing_members():
            self._resilver_armed = True
            self.clock.call_after(self.policy.resilver_period_us,
                                  self._resilver_tick)

    # -- scrub ---------------------------------------------------------------

    def start_scrub(self) -> None:
        """Arm the periodic scrubber (idempotent)."""
        if self.policy.scrub_period_us <= 0:
            raise ValueError("scrub_period_us must be positive to scrub")
        self._scrub_on = True
        if not self._scrub_armed:
            self._scrub_armed = True
            self.clock.call_after(self.policy.scrub_period_us,
                                  self._scrub_tick)

    def stop_scrub(self) -> None:
        """Let the scrub timer lapse after its current period."""
        self._scrub_on = False

    def _scrub_tick(self) -> None:
        self._scrub_armed = False
        if not self._scrub_on:
            return
        extent = self.backend.scrub_extent
        if extent > 0:
            registry = self._registry
            for _ in range(min(self.policy.scrub_batch_pages, extent)):
                row = self._scrub_cursor % extent
                report = self.backend.scrub_page(row)
                if report.members_checked:
                    registry.add("scrub.pages_checked",
                                 report.members_checked)
                if report.mismatches:
                    registry.add("scrub.mismatches", report.mismatches)
                    if self.tracer.enabled:
                        self.tracer.instant("scrub.mismatch", "repair",
                                            self.clock.now, {"row": row})
                if report.repaired:
                    registry.add("scrub.repaired", report.repaired)
                if report.quarantined:
                    registry.add("scrub.quarantined", report.quarantined)
                if report.bytes_read:
                    self.qp.charge_attempt(report.bytes_read, "read")
                self._scrub_cursor += 1
                if self._scrub_cursor % extent == 0:
                    registry.add("scrub.passes")
        self._scrub_armed = True
        self.clock.call_after(self.policy.scrub_period_us, self._scrub_tick)


__all__ = [
    "RepairJournal",
    "RepairManager",
    "RepairPolicy",
    "ScrubReport",
    "coerce_repair_policy",
]
