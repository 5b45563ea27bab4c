"""Multi-node remote memory: sharding, replication, parity striping.

§5.1 leaves multi-node support and fault tolerance as future work and
points at the two standard recipes — replication (Infiniswap, FaRM) and
erasure coding (Hydra, Carbink). This module implements both, plus plain
capacity sharding, behind the same backend interface the single
:class:`~repro.mem.remote.MemoryNode` exposes (``alloc_slot`` /
``slot_offset`` / ``read_bytes`` / ``write_bytes``), so any kernel runs
unchanged on a cluster: pass the backend to ``DilosSystem`` /
``FastswapSystem`` instead of letting them build a single node.

* :class:`ShardedMemory` — pages striped round-robin across nodes; pure
  capacity aggregation, no redundancy.
* :class:`ReplicatedMemory` — every write goes to the primary and all
  mirrors; reads fail over to the first live mirror when the primary dies.
* :class:`ParityStripedMemory` — RAID-5-style: k data nodes + one parity
  node; a failed data node's pages are reconstructed by XOR across the
  surviving stripe (the erasure-coding approach at its simplest).

Failure is injected with ``MemoryNode.fail()``. Because the redundant
backends keep accepting writes while a member is down, a member that
merely calls ``MemoryNode.recover()`` comes back holding **stale
bytes**. The backends therefore journal every range dirtied while a
member is unavailable (:class:`~repro.mem.repair.RepairJournal`) and
expose a :meth:`_ClusterBackend.rejoin` entry point: the member returns
in a *syncing* state — served only for ranges proven clean — until the
journal drains, either synchronously (no repair manager) or by the
paced background resilver of :class:`~repro.mem.repair.RepairManager`.
The same hooks (:meth:`_ClusterBackend.resilver_page`,
:meth:`_ClusterBackend.scrub_page`) back the periodic scrubber.

Counters live in a per-backend :class:`~repro.obs.registry.MetricsRegistry`
under canonical ``cluster.*`` names; the historical ``backend.counters``
attribute remains as a :class:`~repro.obs.registry.LegacyCounters` view
(``counters.get("failover_reads")`` keeps working).
"""

from __future__ import annotations

from typing import List, Sequence, Set, Union

import numpy as np

from repro.common.errors import OutOfMemoryError
from repro.common.units import PAGE_SHIFT, PAGE_SIZE
from repro.mem.remote import MemoryNode, NodeFailedError
from repro.mem.repair import RepairJournal, ScrubReport
from repro.obs.names import CLUSTER_ALIASES
from repro.obs.registry import LegacyCounters, MetricsRegistry
from repro.obs.snapshot import MetricsSnapshot


def _check_nodes(nodes: Sequence[MemoryNode], minimum: int) -> None:
    if len(nodes) < minimum:
        raise ValueError(f"need at least {minimum} memory nodes")
    if len({node.capacity for node in nodes}) != 1:
        raise ValueError("all nodes in a cluster must have equal capacity")


class _ClusterBackend:
    """Shared journal/metrics/rejoin machinery of the three backends.

    Subclasses assign their node topology first, then call
    ``super().__init__()``; members are integer keys into
    :meth:`_member_nodes` (for :class:`ParityStripedMemory`, ``k`` is
    the parity node).
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.registry.register_aliases(CLUSTER_ALIASES)
        for canonical in sorted(set(CLUSTER_ALIASES.values())):
            self.registry.counter(canonical)
        #: Historical flat-counter surface (``counters.get(...)``).
        self.counters = LegacyCounters(self.registry, namespace="cluster")
        #: Ranges dirtied while a member was down or stale.
        self.journal = RepairJournal()
        #: Members back up but not yet proven clean everywhere.
        self._syncing: Set[int] = set()
        #: The attached :class:`~repro.mem.repair.RepairManager`, if any.
        self.repair = None
        self.registry.gauge("cluster.stale_slots",
                            lambda: float(self.journal.total_dirty()))
        self.registry.gauge("cluster.degraded",
                            lambda: float(self.degraded))
        self.registry.gauge("cluster.nodes_down",
                            lambda: float(sum(n.failed
                                              for n in self._member_nodes())))
        self.registry.gauge("repair.nodes_syncing",
                            lambda: float(len(self._syncing)))
        # A syncing member that dies again is simply down; it re-enters
        # syncing through the next rejoin(). (The journal is kept.)
        for member, node in enumerate(self._member_nodes()):
            node.add_failure_listener(
                lambda m=member: self._syncing.discard(m))

    # -- member topology (subclass contract) ---------------------------------

    def _member_nodes(self) -> List[MemoryNode]:
        """Every member node, indexed by member key."""
        raise NotImplementedError

    def member_nodes(self) -> List[MemoryNode]:
        """Every member node, indexed by member key (public copy)."""
        return list(self._member_nodes())

    def live_count(self) -> int:
        """How many members are up (failed ones excluded)."""
        return sum(not node.failed for node in self._member_nodes())

    # -- redundancy state ----------------------------------------------------

    @property
    def stale_slots(self) -> int:
        """Page slots whose content is stale on at least one member —
        the amount of redundancy currently lost to journaled writes."""
        return self.journal.total_dirty()

    @property
    def degraded(self) -> bool:
        """True while full redundancy is not available: a member is
        down, still syncing, or holds journaled stale ranges."""
        return (bool(self._syncing) or self.journal.total_dirty() > 0
                or any(node.failed for node in self._member_nodes()))

    def syncing_members(self) -> List[int]:
        return sorted(self._syncing)

    def is_syncing(self, member: int) -> bool:
        """Is ``member`` back up but not yet proven clean everywhere?"""
        return member in self._syncing

    def metrics(self) -> MetricsSnapshot:
        """This backend's own snapshot (``cluster.*``/``repair.*``/...)."""
        return self.registry.snapshot(system=type(self).__name__)

    # -- rejoin / repair -----------------------------------------------------

    def attach_repair(self, manager) -> None:
        if self.repair is not None and self.repair is not manager:
            raise ValueError("a RepairManager is already attached")
        self.repair = manager

    def _resolve_member(self, node: Union[MemoryNode, int]) -> int:
        if isinstance(node, int):
            if not 0 <= node < len(self._member_nodes()):
                raise ValueError(f"no cluster member {node}")
            return node
        for member, candidate in enumerate(self._member_nodes()):
            if candidate is node:
                return member
        raise ValueError(f"node {node.name!r} is not a member of this cluster")

    def rejoin(self, node: Union[MemoryNode, int]) -> bool:
        """Bring a failed member back *correctly*: recover it, and if any
        of its content went stale while it was away, keep it in the
        syncing state (reads avoid its journaled ranges) until the
        resilver has replayed every dirty page. Returns True when the
        member is already back in full service, False while syncing
        continues in the background.
        """
        member = self._resolve_member(node)
        target = self._member_nodes()[member]
        if not target.failed:
            if member in self._syncing:
                # Idempotent re-entry: the member is already back and
                # mid-resilver. Don't re-count the rejoin or re-notify
                # the manager (which would restart its sync clock); with
                # no manager, just retry the synchronous fallback.
                if self.repair is not None:
                    return False
                return self._resilver_member_now(member)
            if self.journal.dirty_count(member) == 0:
                return True  # already in full service — nothing to do
            # Recovered out-of-band with stale ranges: genuine rejoin.
        else:
            target.recover()
        self.counters.add("rejoins")
        if self.journal.dirty_count(member) == 0:
            return True
        self._syncing.add(member)
        if self.repair is not None:
            self.repair.notify_rejoin(member)
            return False
        return self._resilver_member_now(member)

    def promote(self, member: int) -> None:
        """A syncing member drained its journal: full service again.

        Refused while the member still holds journaled stale ranges —
        promoting it early would drop it from ``_syncing`` while dirty,
        so the background resilver (which iterates ``syncing_members()``)
        would orphan its journal and the member would serve from the
        journal-protected degraded path forever."""
        if member not in self._syncing:
            return
        if self.journal.dirty_count(member) > 0:
            self.registry.add("repair.premature_promotes")
            return
        self._syncing.discard(member)
        self.registry.add("repair.nodes_promoted")

    def _resilver_member_now(self, member: int) -> bool:
        """Synchronous fallback resilver (no manager attached): replay
        the whole journal in zero simulated time. Returns False when no
        clean source is available yet (the member stays syncing and the
        journal keeps protecting reads)."""
        while True:
            pages = self.journal.dirty_pages(member)
            if not pages:
                self.promote(member)
                return True
            progressed = False
            for page in pages:
                if self.resilver_page(member, page) >= 0:
                    progressed = True
            if not progressed:
                return False

    def resilver_page(self, member: int, page: int) -> int:
        """Rebuild one journaled page of ``member`` from clean peers.

        Returns the wire bytes *read* to rebuild it (the resilver's
        charge), or -1 when no clean source is currently available (the
        page stays journaled and is retried later)."""
        raise NotImplementedError

    # -- scrub (subclass contract) -------------------------------------------

    @property
    def scrub_extent(self) -> int:
        """Rows the scrubber cycles through (0 = nothing to verify)."""
        return 0

    def scrub_page(self, row: int) -> ScrubReport:
        """Verify one row of at-rest redundancy; repair or quarantine."""
        raise NotImplementedError


class ShardedMemory(_ClusterBackend):
    """Pages striped across ``nodes``: global page g lives on node g % n.

    No redundancy: a dead shard's pages are simply unavailable, so there
    is nothing to journal and nothing to resilver — ``rejoin`` is
    ``recover`` plus bookkeeping, and the scrubber has no invariant to
    check."""

    def __init__(self, nodes: Sequence[MemoryNode]) -> None:
        _check_nodes(nodes, 2)
        self.nodes: List[MemoryNode] = list(nodes)
        super().__init__()

    def _member_nodes(self) -> List[MemoryNode]:
        return self.nodes

    @property
    def capacity(self) -> int:
        return sum(node.capacity for node in self.nodes)

    @property
    def total_slots(self) -> int:
        return sum(node.total_slots for node in self.nodes)

    @property
    def free_slots(self) -> int:
        return sum(node.free_slots for node in self.nodes)

    # -- slots -------------------------------------------------------------

    def alloc_slot(self) -> int:
        """A global slot on the node with the most free capacity."""
        best = max(range(len(self.nodes)),
                   key=lambda i: self.nodes[i].free_slots)
        if self.nodes[best].free_slots == 0:
            raise OutOfMemoryError("memory cluster exhausted")
        local = self.nodes[best].alloc_slot()
        return local * len(self.nodes) + best

    def free_slot(self, global_slot: int) -> None:
        node_index = global_slot % len(self.nodes)
        self.nodes[node_index].free_slot(global_slot // len(self.nodes))

    def slot_offset(self, global_slot: int) -> int:
        return global_slot << PAGE_SHIFT

    def _route(self, offset: int):
        """Map a global offset to (node, local offset)."""
        global_page = offset >> PAGE_SHIFT
        node = self.nodes[global_page % len(self.nodes)]
        local = ((global_page // len(self.nodes)) << PAGE_SHIFT) \
            | (offset & (PAGE_SIZE - 1))
        return node, local

    # -- data path (splits page-crossing requests) ---------------------------

    def read_bytes(self, offset: int, size: int) -> bytes:
        parts = []
        while size > 0:
            node, local = self._route(offset)
            take = min(PAGE_SIZE - (offset & (PAGE_SIZE - 1)), size)
            parts.append(node.read_bytes(local, take))
            offset += take
            size -= take
        return b"".join(parts)

    def write_bytes(self, offset: int, data: bytes) -> None:
        cursor = 0
        while cursor < len(data):
            node, local = self._route(offset)
            take = min(PAGE_SIZE - (offset & (PAGE_SIZE - 1)),
                       len(data) - cursor)
            node.write_bytes(local, data[cursor:cursor + take])
            offset += take
            cursor += take

    def resilver_page(self, member: int, page: int) -> int:
        return -1  # no redundant copy to rebuild from


class ReplicatedMemory(_ClusterBackend):
    """Primary/mirror replication: writes fan out, reads fail over.

    While a replica is down its missed writes are journaled; after
    ``rejoin`` the replica serves only ranges the journal proves clean,
    and the resilver copies each stale page from the first clean live
    replica until the journal drains."""

    def __init__(self, nodes: Sequence[MemoryNode]) -> None:
        _check_nodes(nodes, 2)
        self.primary = nodes[0]
        self.mirrors: List[MemoryNode] = list(nodes[1:])
        #: Every replica, primary first: member key -> node.
        self._replicas: List[MemoryNode] = list(nodes)
        super().__init__()
        self._replicated_writes = self.registry.counter(
            "cluster.replicated_writes")

    def _member_nodes(self) -> List[MemoryNode]:
        return self._replicas

    @property
    def capacity(self) -> int:
        return self.primary.capacity

    @property
    def total_slots(self) -> int:
        return self.primary.total_slots

    @property
    def free_slots(self) -> int:
        return self.primary.free_slots

    def alloc_slot(self) -> int:
        # Slot metadata lives on the computing node; the same slot id
        # addresses the same offset on every replica.
        return self.primary.alloc_slot()

    def free_slot(self, slot: int) -> None:
        self.primary.free_slot(slot)

    def slot_offset(self, slot: int) -> int:
        return slot << PAGE_SHIFT

    def read_bytes(self, offset: int, size: int) -> bytes:
        for member, replica in enumerate(self._replicas):
            if replica.failed:
                self.counters.add("failover_reads")
                continue
            if self.journal.is_dirty(member, offset, size):
                # The replica is up but this range went stale while it
                # was away and the resilver has not replayed it yet.
                self.counters.add("stale_reads_avoided")
                continue
            try:
                data = replica.read_bytes(offset, size)
            except NodeFailedError:
                self.counters.add("failover_reads")
                continue
            return data
        raise NodeFailedError("no replica holds a clean copy of this range")

    def write_bytes(self, offset: int, data: bytes) -> None:
        size = len(data)
        wrote = 0
        missed: List[int] = []
        for member, replica in enumerate(self._replicas):
            try:
                replica.write_bytes(offset, data)
                wrote += 1
            except NodeFailedError:
                self.counters.add("writes_skipped_dead_replica")
                missed.append(member)
            else:
                # A write-through onto a stale range freshens it: pages
                # it fully covers (none, for a sub-page write) no longer
                # need resilvering.
                if size >= PAGE_SIZE:
                    self.journal.clear_covered(member, offset, size)
        if wrote == 0:
            raise NodeFailedError("all replicas are down")
        self._replicated_writes.value += wrote
        # Journal only when the write took effect somewhere: a failed
        # write changed nothing, so nothing went stale.
        for member in missed:
            self.journal.record_range(member, offset, size)

    def resilver_page(self, member: int, page: int) -> int:
        replicas = self._replicas
        target = replicas[member]
        if target.failed:
            return -1
        offset = page << PAGE_SHIFT
        for source_member, source in enumerate(replicas):
            if source_member == member or source.failed:
                continue
            if self.journal.is_dirty(source_member, offset, PAGE_SIZE):
                continue
            try:
                data = source.read_bytes(offset, PAGE_SIZE)
            except NodeFailedError:
                continue
            target.write_bytes(offset, data)
            self.journal.clear_page(member, page)
            return PAGE_SIZE
        return -1

    @property
    def scrub_extent(self) -> int:
        return self.primary.total_slots

    def scrub_page(self, row: int) -> ScrubReport:
        """Cross-replica agreement check for one page slot. The first
        clean live replica is authoritative (primary-copy semantics);
        divergent copies are rewritten from it, or journaled as
        quarantined when the repair write fails."""
        report = ScrubReport()
        offset = row << PAGE_SHIFT
        verifiable = [
            (member, replica)
            for member, replica in enumerate(self._replicas)
            if not replica.failed
            and not self.journal.is_dirty(member, offset, PAGE_SIZE)
        ]
        if len(verifiable) < 2:
            return report  # nothing to compare against
        report.members_checked = len(verifiable)
        report.bytes_read = len(verifiable) * PAGE_SIZE
        truth_member, truth_node = verifiable[0]
        truth = truth_node.read_bytes(offset, PAGE_SIZE)
        for member, replica in verifiable[1:]:
            if replica.read_bytes(offset, PAGE_SIZE) == truth:
                continue
            report.mismatches += 1
            try:
                replica.write_bytes(offset, truth)
                report.repaired += 1
            except NodeFailedError:
                self.journal.record_range(member, offset, PAGE_SIZE)
                report.quarantined += 1
        return report


class ParityStripedMemory(_ClusterBackend):
    """k data nodes + 1 parity node; XOR reconstruction on failure.

    Data page layout matches :class:`ShardedMemory` over the k data
    nodes; the parity node's local page r holds the XOR of every data
    node's local page r (one stripe row). Member keys 0..k-1 are the
    data nodes and k is the parity node; journal offsets are node-local
    (stripe rows line up across members).

    A degraded write keeps the invariant *parity row = XOR of the
    logical stripe row* — the absent member's new data is folded into
    parity and its physical page journaled stale, so reconstruction
    still yields the fresh bytes and a later rejoin cannot resurrect
    the old ones."""

    def __init__(self, nodes: Sequence[MemoryNode]) -> None:
        _check_nodes(nodes, 3)
        self.data_nodes: List[MemoryNode] = list(nodes[:-1])
        self.parity_node = nodes[-1]
        super().__init__()

    def _member_nodes(self) -> List[MemoryNode]:
        return self.data_nodes + [self.parity_node]

    @property
    def k(self) -> int:
        return len(self.data_nodes)

    @property
    def capacity(self) -> int:
        return sum(node.capacity for node in self.data_nodes)

    @property
    def total_slots(self) -> int:
        return sum(node.total_slots for node in self.data_nodes)

    @property
    def free_slots(self) -> int:
        return sum(node.free_slots for node in self.data_nodes)

    def alloc_slot(self) -> int:
        best = max(range(self.k),
                   key=lambda i: self.data_nodes[i].free_slots)
        if self.data_nodes[best].free_slots == 0:
            raise OutOfMemoryError("memory cluster exhausted")
        local = self.data_nodes[best].alloc_slot()
        return local * self.k + best

    def free_slot(self, global_slot: int) -> None:
        self.data_nodes[global_slot % self.k].free_slot(global_slot // self.k)

    def slot_offset(self, global_slot: int) -> int:
        return global_slot << PAGE_SHIFT

    def _route(self, offset: int):
        global_page = offset >> PAGE_SHIFT
        index = global_page % self.k
        local_page = global_page // self.k
        local = (local_page << PAGE_SHIFT) | (offset & (PAGE_SIZE - 1))
        return index, local

    @staticmethod
    def _xor(a: bytes, b: bytes) -> bytes:
        # Vectorized: parity spans whole pages, and a per-byte Python loop
        # dominates reconstruction/write time at 4 KiB granularity.
        n = min(len(a), len(b))
        return np.bitwise_xor(np.frombuffer(a, np.uint8, n),
                              np.frombuffer(b, np.uint8, n)).tobytes()

    def _member_clean(self, member: int, node: MemoryNode,
                      local: int, size: int) -> bool:
        return not node.failed and \
            not self.journal.is_dirty(member, local, size)

    def _survivor_xor(self, failed_index: int, local: int, size: int) -> bytes:
        """Reconstruct a range of an absent/stale node from its stripe
        row. Every source must itself be clean: XOR-ing a stale or dead
        copy in would fabricate bytes that were never written."""
        if not self._member_clean(self.k, self.parity_node, local, size):
            raise NodeFailedError(
                "cannot reconstruct: parity is down or stale for this row")
        acc = self.parity_node.read_bytes(local, size)
        for index, node in enumerate(self.data_nodes):
            if index == failed_index:
                continue
            if not self._member_clean(index, node, local, size):
                raise NodeFailedError(
                    "cannot reconstruct: a second stripe member is down "
                    "or stale for this row")
            acc = self._xor(acc, node.read_bytes(local, size))
        self.counters.add("reconstruction_bytes", size * self.k)
        return acc

    def read_bytes(self, offset: int, size: int) -> bytes:
        parts = []
        while size > 0:
            index, local = self._route(offset)
            take = min(PAGE_SIZE - (offset & (PAGE_SIZE - 1)), size)
            node = self.data_nodes[index]
            if self.journal.is_dirty(index, local, take):
                # Up (rejoined) but stale here: reconstruct instead of
                # serving the pre-crash bytes.
                self.counters.add("stale_reads_avoided")
                parts.append(self._survivor_xor(index, local, take))
            else:
                try:
                    parts.append(node.read_bytes(local, take))
                except NodeFailedError:
                    self.counters.add("degraded_reads")
                    parts.append(self._survivor_xor(index, local, take))
            offset += take
            size -= take
        return b"".join(parts)

    def write_bytes(self, offset: int, data: bytes) -> None:
        cursor = 0
        while cursor < len(data):
            index, local = self._route(offset)
            take = min(PAGE_SIZE - (offset & (PAGE_SIZE - 1)),
                       len(data) - cursor)
            piece = data[cursor:cursor + take]
            node = self.data_nodes[index]
            if node.failed:
                self._degraded_write(index, local, piece)
            elif self.journal.is_dirty(index, local, take):
                self._sync_write(index, node, local, piece)
            else:
                try:
                    old = node.read_bytes(local, take)
                    node.write_bytes(local, piece)
                except NodeFailedError:
                    self._degraded_write(index, local, piece)
                else:
                    self._update_parity(local, old, piece)
            offset += take
            cursor += take

    def _degraded_write(self, index: int, local: int, piece: bytes) -> None:
        """The home node is down: fold the new data into parity so it
        stays recoverable by XOR, and journal the home page stale. The
        parity write happens first — if no clean survivors exist the
        write raises and nothing (journal included) changes."""
        take = len(piece)
        acc = piece
        for other_index, other in enumerate(self.data_nodes):
            if other_index == index:
                continue
            if not self._member_clean(other_index, other, local, take):
                raise NodeFailedError(
                    "degraded write impossible: a second stripe member "
                    "is down or stale for this row")
            acc = self._xor(acc, other.read_bytes(local, take))
        if not self._member_clean(self.k, self.parity_node, local, take):
            raise NodeFailedError(
                "degraded write impossible: parity is down or stale "
                "for this row")
        self.parity_node.write_bytes(local, acc)
        self.journal.record_range(index, local, take)
        self.counters.add("degraded_writes")

    def _sync_write(self, index: int, node: MemoryNode,
                    local: int, piece: bytes) -> None:
        """Write onto a live-but-stale (syncing) page: store the data
        physically and *recompute* parity for the range — the RMW
        shortcut would fold the stale old bytes into parity. A full-page
        write makes the page clean outright."""
        take = len(piece)
        for other_index, other in enumerate(self.data_nodes):
            if other_index == index:
                continue
            if not self._member_clean(other_index, other, local, take):
                raise NodeFailedError(
                    "sync write impossible: a second stripe member is "
                    "down or stale for this row")
        if not self._member_clean(self.k, self.parity_node, local, take):
            raise NodeFailedError(
                "sync write impossible: parity is down or stale for "
                "this row")
        node.write_bytes(local, piece)
        acc = piece
        for other_index, other in enumerate(self.data_nodes):
            if other_index != index:
                acc = self._xor(acc, other.read_bytes(local, take))
        self.parity_node.write_bytes(local, acc)
        self.journal.clear_covered(index, local, take)
        self.counters.add("sync_writes")

    def _update_parity(self, local: int, old: bytes, piece: bytes) -> None:
        parity_member = self.k
        take = len(piece)
        if self.parity_node.failed or \
                self.journal.is_dirty(parity_member, local, take):
            # Down, or up-but-stale here: an RMW against stale parity
            # would corrupt the row further. Journal it for the
            # resilver; redundancy is simply lost meanwhile.
            self.journal.record_range(parity_member, local, take)
            self.counters.add("parity_writes_skipped")
            return
        try:
            # Read-modify-write the parity: P ^= old ^ new.
            parity_old = self.parity_node.read_bytes(local, take)
            self.parity_node.write_bytes(
                local, self._xor(parity_old, self._xor(old, piece)))
        except NodeFailedError:
            self.journal.record_range(parity_member, local, take)
            self.counters.add("parity_writes_skipped")

    def resilver_page(self, member: int, page: int) -> int:
        local = page << PAGE_SHIFT
        target = self._member_nodes()[member]
        if target.failed:
            return -1
        if member == self.k:
            # Parity page: recompute from the full (clean) data row.
            for index, node in enumerate(self.data_nodes):
                if not self._member_clean(index, node, local, PAGE_SIZE):
                    return -1
            acc = self.data_nodes[0].read_bytes(local, PAGE_SIZE)
            for node in self.data_nodes[1:]:
                acc = self._xor(acc, node.read_bytes(local, PAGE_SIZE))
        else:
            # Data page: XOR of parity and the other (clean) data rows.
            if not self._member_clean(self.k, self.parity_node,
                                      local, PAGE_SIZE):
                return -1
            for index, node in enumerate(self.data_nodes):
                if index != member and \
                        not self._member_clean(index, node, local, PAGE_SIZE):
                    return -1
            acc = self.parity_node.read_bytes(local, PAGE_SIZE)
            for index, node in enumerate(self.data_nodes):
                if index != member:
                    acc = self._xor(acc, node.read_bytes(local, PAGE_SIZE))
        target.write_bytes(local, acc)
        self.journal.clear_page(member, page)
        return self.k * PAGE_SIZE

    @property
    def scrub_extent(self) -> int:
        return self.data_nodes[0].total_slots

    def scrub_page(self, row: int) -> ScrubReport:
        """Verify the parity invariant for one stripe row. Rows with an
        absent or stale member are skipped (the journal already knows
        about them). On mismatch the data wins — k independent copies
        against one — so the parity page is rewritten, or journaled as
        quarantined if the rewrite fails."""
        report = ScrubReport()
        local = row << PAGE_SHIFT
        for member, node in enumerate(self._member_nodes()):
            if not self._member_clean(member, node, local, PAGE_SIZE):
                return report
        acc = self.data_nodes[0].read_bytes(local, PAGE_SIZE)
        for node in self.data_nodes[1:]:
            acc = self._xor(acc, node.read_bytes(local, PAGE_SIZE))
        report.members_checked = self.k + 1
        report.bytes_read = (self.k + 1) * PAGE_SIZE
        if self.parity_node.read_bytes(local, PAGE_SIZE) == acc:
            return report
        report.mismatches = 1
        try:
            self.parity_node.write_bytes(local, acc)
            report.repaired = 1
        except NodeFailedError:
            self.journal.record_range(self.k, local, PAGE_SIZE)
            report.quarantined = 1
        return report


__all__ = [
    "ParityStripedMemory",
    "ReplicatedMemory",
    "ShardedMemory",
]
