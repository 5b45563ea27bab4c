"""The online repair subsystem: journal, rejoin, resilver, scrub.

The stale-rejoin bug these tests pin down: the redundant cluster
backends keep accepting writes while a member is down, but a member
that merely called ``MemoryNode.recover()`` used to go straight back on
the read path with its pre-crash contents — a later failure of the
surviving copy (or any ordinary read of a rejoined data node) silently
returned old bytes. The regression tests here exercise exactly those
sequences; they fail on the pre-repair code and pass now because the
repair journal keeps stale ranges off the read path until the resilver
has replayed them.
"""

import pytest

from repro.common.clock import Clock
from repro.common.units import MIB, PAGE_SIZE
from repro.core import DilosConfig, DilosSystem
from repro.harness.scenarios import SCENARIOS
from repro.mem.cluster import (
    ParityStripedMemory,
    ReplicatedMemory,
    ShardedMemory,
)
from repro.mem.remote import MemoryNode, NodeFailedError
from repro.mem.repair import (
    RepairJournal,
    RepairManager,
    RepairPolicy,
    coerce_repair_policy,
)


def make_nodes(n, capacity=4 * MIB):
    return [MemoryNode(capacity, name=f"m{i}") for i in range(n)]


class TestRepairJournal:
    def test_record_marks_every_overlapping_page(self):
        journal = RepairJournal()
        journal.record_range(0, PAGE_SIZE - 10, 20)  # straddles pages 0/1
        assert journal.dirty_pages(0) == [0, 1]
        assert journal.is_dirty(0, 0, 1)
        assert journal.is_dirty(0, PAGE_SIZE, 1)
        assert not journal.is_dirty(0, 2 * PAGE_SIZE, PAGE_SIZE)

    def test_members_are_independent(self):
        journal = RepairJournal()
        journal.record_range(0, 0, PAGE_SIZE)
        journal.record_range(2, 0, PAGE_SIZE)
        assert journal.is_dirty(0, 0, 1) and journal.is_dirty(2, 0, 1)
        assert not journal.is_dirty(1, 0, 1)
        assert journal.members() == [0, 2]
        assert journal.total_dirty() == 2

    def test_partial_write_does_not_clean_a_page(self):
        journal = RepairJournal()
        journal.record_range(0, 0, PAGE_SIZE)
        journal.clear_covered(0, 0, 64)  # partial: the rest is still stale
        assert journal.is_dirty(0, 0, PAGE_SIZE)
        journal.clear_covered(0, 0, PAGE_SIZE)  # full page: clean
        assert not journal.is_dirty(0, 0, PAGE_SIZE)
        assert journal.total_dirty() == 0

    def test_clear_covered_only_drops_fully_covered_pages(self):
        journal = RepairJournal()
        journal.record_range(0, 0, 3 * PAGE_SIZE)
        # Covers page 1 fully, pages 0 and 2 only partially.
        journal.clear_covered(0, PAGE_SIZE // 2, 2 * PAGE_SIZE)
        assert journal.dirty_pages(0) == [0, 2]

    def test_clear_page_and_member(self):
        journal = RepairJournal()
        journal.record_range(1, 0, 2 * PAGE_SIZE)
        journal.clear_page(1, 0)
        assert journal.dirty_pages(1) == [1]
        journal.clear_member(1)
        assert journal.total_dirty() == 0
        journal.clear_page(1, 5)  # clearing a clean member is a no-op

    def test_zero_size_is_ignored(self):
        journal = RepairJournal()
        journal.record_range(0, 0, 0)
        assert journal.total_dirty() == 0
        assert not journal.is_dirty(0, 0, 0)


class TestRepairPolicy:
    def test_spec_round_trip(self):
        policy = RepairPolicy.from_spec(
            "resilver_period=100,resilver_batch=4,"
            "scrub_period=5000,scrub_batch=32")
        assert policy.resilver_period_us == 100.0
        assert policy.resilver_batch_pages == 4
        assert policy.scrub_period_us == 5000.0
        assert policy.scrub_batch_pages == 32

    def test_empty_spec_is_defaults(self):
        assert RepairPolicy.from_spec("") == RepairPolicy()

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            RepairPolicy.from_spec("resilver_period")
        with pytest.raises(ValueError):
            RepairPolicy.from_spec("bogus_knob=3")
        with pytest.raises(ValueError):
            RepairPolicy.from_spec("resilver_batch=lots")
        with pytest.raises(ValueError):
            RepairPolicy.from_spec("resilver_period=0")
        with pytest.raises(ValueError):
            RepairPolicy.from_spec("scrub_period=-1")

    def test_coercion(self):
        assert coerce_repair_policy(None) is None
        policy = RepairPolicy(scrub_period_us=123.0)
        assert coerce_repair_policy(policy) is policy
        assert coerce_repair_policy(
            {"resilver_batch_pages": 2}).resilver_batch_pages == 2
        assert coerce_repair_policy(
            "scrub_period=9").scrub_period_us == 9.0
        with pytest.raises(TypeError):
            coerce_repair_policy(42)


class TestReplicatedRejoin:
    def test_raw_recover_never_serves_stale_bytes(self):
        """The seed bug, exact sequence: mirror down -> degraded writes ->
        bare ``recover()`` -> primary down -> read. The seed returned the
        mirror's pre-crash bytes; now the journal keeps the range off the
        read path (no clean copy exists, so the read raises)."""
        nodes = make_nodes(2)
        backend = ReplicatedMemory(nodes)
        backend.write_bytes(0, b"A" * PAGE_SIZE)
        nodes[1].fail()
        backend.write_bytes(0, b"B" * PAGE_SIZE)
        nodes[1].recover()  # bypasses rejoin() entirely
        nodes[0].fail()
        with pytest.raises(NodeFailedError):
            backend.read_bytes(0, 64)
        assert backend.registry.value("cluster.stale_reads_avoided") > 0

    def test_reads_prefer_clean_replica_over_stale_one(self):
        nodes = make_nodes(2)
        backend = ReplicatedMemory(nodes)
        backend.write_bytes(0, b"A" * PAGE_SIZE)
        nodes[0].fail()
        backend.write_bytes(0, b"B" * PAGE_SIZE)  # only the mirror has B
        nodes[0].recover()
        # The stale primary is up, but the read must come from the mirror.
        assert backend.read_bytes(0, 64) == b"B" * 64
        assert backend.registry.value("cluster.stale_reads_avoided") == 1

    def test_rejoin_without_manager_resilvers_synchronously(self):
        nodes = make_nodes(2)
        backend = ReplicatedMemory(nodes)
        backend.write_bytes(0, b"A" * PAGE_SIZE)
        backend.write_bytes(PAGE_SIZE, b"C" * PAGE_SIZE)
        nodes[1].fail()
        backend.write_bytes(0, b"B" * PAGE_SIZE)
        assert backend.stale_slots == 1 and backend.degraded
        assert backend.rejoin(nodes[1]) is True
        assert backend.stale_slots == 0 and not backend.degraded
        nodes[0].fail()
        assert backend.read_bytes(0, 64) == b"B" * 64
        assert backend.read_bytes(PAGE_SIZE, 64) == b"C" * 64
        assert backend.registry.value("cluster.rejoins") == 1

    def test_background_resilver_is_paced_on_the_clock(self):
        nodes = make_nodes(2)
        backend = ReplicatedMemory(nodes)
        clock = Clock()
        RepairManager(backend, clock,
                      policy="resilver_period=100,resilver_batch=2")
        for page in range(8):
            backend.write_bytes(page * PAGE_SIZE, b"A" * PAGE_SIZE)
        nodes[1].fail()
        for page in range(8):
            backend.write_bytes(page * PAGE_SIZE, bytes([page]) * PAGE_SIZE)
        assert backend.stale_slots == 8
        assert backend.rejoin(nodes[1]) is False  # async: still syncing
        assert backend.syncing_members() == [1]
        clock.advance(100)  # one tick, batch=2
        assert backend.stale_slots == 6
        clock.advance(250)  # two more ticks
        assert backend.stale_slots == 2
        clock.advance(100)
        assert backend.stale_slots == 0
        assert backend.syncing_members() == []
        assert backend.registry.value("repair.pages_resilvered") == 8
        assert backend.registry.value("repair.nodes_promoted") == 1
        # Every byte is on the mirror now: primary can die.
        nodes[0].fail()
        for page in range(8):
            assert backend.read_bytes(page * PAGE_SIZE, 32) == \
                bytes([page]) * 32

    def test_resilver_charges_wire_time_on_its_own_qp(self):
        nodes = make_nodes(2)
        backend = ReplicatedMemory(nodes)
        clock = Clock()
        manager = RepairManager(backend, clock,
                                policy="resilver_period=100")
        backend.write_bytes(0, b"A" * PAGE_SIZE)
        nodes[1].fail()
        backend.write_bytes(0, b"B" * PAGE_SIZE)
        backend.rejoin(nodes[1])
        clock.advance(200)
        assert manager.net.bytes_read == PAGE_SIZE
        assert manager.net.bytes_written == PAGE_SIZE

    def test_write_during_sync_cleans_fully_covered_pages(self):
        nodes = make_nodes(2)
        backend = ReplicatedMemory(nodes)
        clock = Clock()
        RepairManager(backend, clock,
                      policy="resilver_period=100,resilver_batch=1")
        backend.write_bytes(0, b"A" * (2 * PAGE_SIZE))
        nodes[1].fail()
        backend.write_bytes(0, b"B" * (2 * PAGE_SIZE))
        backend.rejoin(nodes[1])
        assert backend.stale_slots == 2
        # A full-page write-through freshens page 1 without the resilver.
        backend.write_bytes(PAGE_SIZE, b"C" * PAGE_SIZE)
        assert backend.stale_slots == 1
        # A partial write cannot clean page 0: the rest is still stale.
        backend.write_bytes(0, b"D" * 64)
        assert backend.stale_slots == 1
        clock.advance(200)
        assert backend.stale_slots == 0
        nodes[0].fail()
        assert backend.read_bytes(0, 128) == b"D" * 64 + b"B" * 64
        assert backend.read_bytes(PAGE_SIZE, 64) == b"C" * 64

    def test_failed_write_is_not_journaled(self):
        nodes = make_nodes(2)
        backend = ReplicatedMemory(nodes)
        for node in nodes:
            node.fail()
        with pytest.raises(NodeFailedError):
            backend.write_bytes(0, b"X" * 64)
        assert backend.stale_slots == 0  # nothing changed, nothing stale

    def test_resilver_stalls_without_a_clean_source(self):
        nodes = make_nodes(2)
        backend = ReplicatedMemory(nodes)
        clock = Clock()
        RepairManager(backend, clock, policy="resilver_period=100")
        backend.write_bytes(0, b"A" * PAGE_SIZE)
        nodes[1].fail()
        backend.write_bytes(0, b"B" * PAGE_SIZE)
        backend.rejoin(nodes[1])
        nodes[0].fail()  # the only clean source is gone
        clock.advance(300)
        assert backend.stale_slots == 1  # stalled, not falsely promoted
        assert backend.registry.value("repair.source_stalls") > 0
        nodes[0].recover()  # primary never missed a write: clean rejoin
        assert backend.rejoin(nodes[0]) is True
        clock.advance(200)
        assert backend.stale_slots == 0
        nodes[0].fail()
        assert backend.read_bytes(0, 64) == b"B" * 64

    def test_syncing_member_that_dies_again_stops_syncing(self):
        nodes = make_nodes(2)
        backend = ReplicatedMemory(nodes)
        clock = Clock()
        RepairManager(backend, clock,
                      policy="resilver_period=100,resilver_batch=1")
        backend.write_bytes(0, b"A" * (4 * PAGE_SIZE))
        nodes[1].fail()
        backend.write_bytes(0, b"B" * (4 * PAGE_SIZE))
        backend.rejoin(nodes[1])
        clock.advance(100)
        nodes[1].fail()  # dies mid-resilver
        assert backend.syncing_members() == []
        remaining = backend.stale_slots
        assert remaining > 0
        clock.advance(1000)  # no progress while it is down
        assert backend.stale_slots == remaining
        backend.rejoin(nodes[1])
        clock.advance(1000)
        assert backend.stale_slots == 0


class TestParityRejoin:
    def test_raw_recover_never_serves_stale_bytes(self):
        """The seed bug on the parity backend: degraded writes land in
        parity only; after a bare ``recover()`` the seed served the data
        node's pre-crash bytes directly. Now the journal routes the read
        through reconstruction, which yields the fresh bytes."""
        nodes = make_nodes(3)
        backend = ParityStripedMemory(nodes)
        backend.write_bytes(0, b"A" * PAGE_SIZE)
        nodes[0].fail()
        backend.write_bytes(0, b"B" * PAGE_SIZE)  # degraded: parity only
        assert backend.registry.value("cluster.degraded_writes") == 1
        nodes[0].recover()  # bypasses rejoin() entirely
        assert backend.read_bytes(0, 64) == b"B" * 64
        assert backend.registry.value("cluster.stale_reads_avoided") > 0

    def test_rejoin_then_second_failure_reads_correctly(self):
        nodes = make_nodes(3)
        backend = ParityStripedMemory(nodes)
        k = backend.k
        for page in range(6):
            backend.write_bytes(page * PAGE_SIZE, bytes([page + 1]) * 64)
        nodes[0].fail()
        for page in range(6):
            backend.write_bytes(page * PAGE_SIZE, bytes([page + 100]) * 64)
        assert backend.stale_slots == 6 // k
        assert backend.rejoin(nodes[0]) is True  # synchronous resilver
        assert backend.stale_slots == 0
        nodes[1].fail()  # a *different* data node
        for page in range(6):
            assert backend.read_bytes(page * PAGE_SIZE, 64) == \
                bytes([page + 100]) * 64

    def test_stale_page_unreadable_when_reconstruction_impossible(self):
        nodes = make_nodes(3)
        backend = ParityStripedMemory(nodes)
        clock = Clock()
        RepairManager(backend, clock, policy="resilver_period=100")
        backend.write_bytes(0, b"A" * 64)
        nodes[0].fail()
        backend.write_bytes(0, b"B" * 64)
        backend.rejoin(nodes[0])  # syncing; resilver has not run yet
        nodes[-1].fail()  # parity gone: page 0's only truth is gone
        with pytest.raises(NodeFailedError):
            backend.read_bytes(0, 64)

    def test_parity_node_rejoin_recomputes_parity(self):
        nodes = make_nodes(3)
        backend = ParityStripedMemory(nodes)
        backend.write_bytes(0, b"A" * PAGE_SIZE)
        nodes[-1].fail()  # parity down
        backend.write_bytes(0, b"B" * PAGE_SIZE)
        assert backend.registry.value("cluster.parity_writes_skipped") == 1
        assert backend.stale_slots == 1  # the parity row is stale
        assert backend.rejoin(nodes[-1]) is True
        assert backend.stale_slots == 0
        nodes[0].fail()  # parity must now reconstruct the fresh bytes
        assert backend.read_bytes(0, 64) == b"B" * 64

    def test_degraded_write_with_parity_down_raises(self):
        """Two unavailable members = the write cannot be made durable;
        it must fail loudly, and nothing may be journaled for it."""
        nodes = make_nodes(3)
        backend = ParityStripedMemory(nodes)
        backend.write_bytes(0, b"A" * 64)
        nodes[0].fail()
        nodes[-1].fail()
        with pytest.raises(NodeFailedError):
            backend.write_bytes(0, b"B" * 64)
        assert backend.stale_slots == 0

    def test_write_during_sync_repairs_the_page_inline(self):
        nodes = make_nodes(3)
        backend = ParityStripedMemory(nodes)
        clock = Clock()
        RepairManager(backend, clock,
                      policy="resilver_period=1000,resilver_batch=1")
        backend.write_bytes(0, b"A" * PAGE_SIZE)
        nodes[0].fail()
        backend.write_bytes(0, b"B" * PAGE_SIZE)
        backend.rejoin(nodes[0])
        assert backend.stale_slots == 1
        # A full-page write-through while syncing makes the page clean
        # before the resilver ever reaches it.
        backend.write_bytes(0, b"C" * PAGE_SIZE)
        assert backend.stale_slots == 0
        assert backend.registry.value("cluster.sync_writes") == 1
        nodes[1].fail()
        assert backend.read_bytes(0, 64) == b"C" * 64


class TestScrub:
    def test_replicated_scrub_repairs_bit_rot(self):
        nodes = make_nodes(2)
        backend = ReplicatedMemory(nodes)
        clock = Clock()
        RepairManager(backend, clock,
                      policy="scrub_period=100,scrub_batch=2048")
        backend.write_bytes(0, b"A" * PAGE_SIZE)
        # At-rest divergence on the mirror (never goes through the
        # backend's write path, like a real flipped bit).
        nodes[1].write_bytes(10, b"\x77")
        clock.advance(100)
        assert backend.registry.value("scrub.mismatches") == 1
        assert backend.registry.value("scrub.repaired") == 1
        nodes[0].fail()
        assert backend.read_bytes(0, 64) == b"A" * 64  # mirror healed

    def test_parity_scrub_restores_the_invariant(self):
        nodes = make_nodes(3)
        backend = ParityStripedMemory(nodes)
        clock = Clock()
        RepairManager(backend, clock,
                      policy="scrub_period=100,scrub_batch=2048")
        backend.write_bytes(0, b"A" * PAGE_SIZE)
        corrupt = bytes(b ^ 0xFF for b in
                        nodes[-1].read_bytes(0, 32))
        nodes[-1].write_bytes(0, corrupt)
        clock.advance(100)
        assert backend.registry.value("scrub.repaired") == 1
        nodes[0].fail()  # reconstruction relies on the healed parity
        assert backend.read_bytes(0, 64) == b"A" * 64

    def test_scrub_quarantines_when_the_repair_write_fails(self):
        class ReadOnlyNode(MemoryNode):
            """Alive for reads, but every write fails — the repair
            cannot land, so the scrubber must quarantine instead."""
            read_only = False

            def write_bytes(self, offset, data):
                if self.read_only:
                    raise NodeFailedError(f"{self.name} rejects writes")
                super().write_bytes(offset, data)

        nodes = [MemoryNode(4 * MIB, name="m0"),
                 ReadOnlyNode(4 * MIB, name="m1")]
        backend = ReplicatedMemory(nodes)
        clock = Clock()
        RepairManager(backend, clock,
                      policy="scrub_period=100,scrub_batch=2048")
        backend.write_bytes(0, b"A" * PAGE_SIZE)
        MemoryNode.write_bytes(nodes[1], 10, b"\x77")  # rot the mirror
        nodes[1].read_only = True
        clock.advance(100)
        assert backend.registry.value("scrub.quarantined") == 1
        assert backend.registry.value("scrub.repaired") == 0
        # Quarantined = journaled: reads never touch the rotted copy.
        nodes[0].fail()
        with pytest.raises(NodeFailedError):
            backend.read_bytes(0, 64)

    def test_scrub_skips_rows_with_an_absent_member(self):
        nodes = make_nodes(3)
        backend = ParityStripedMemory(nodes)
        backend.write_bytes(0, b"A" * PAGE_SIZE)
        nodes[1].fail()
        report = backend.scrub_page(0)
        assert report.members_checked == 0
        assert report.mismatches == 0

    def test_scrub_counts_full_passes(self):
        nodes = make_nodes(2, capacity=4 * PAGE_SIZE)
        backend = ReplicatedMemory(nodes)
        clock = Clock()
        RepairManager(backend, clock,
                      policy="scrub_period=100,scrub_batch=4")
        clock.advance(250)  # two full batches over a 4-row extent
        assert backend.registry.value("scrub.passes") == 2
        assert backend.registry.value("scrub.pages_checked") == 16

    def test_stop_scrub_lets_the_timer_lapse(self):
        nodes = make_nodes(2, capacity=4 * PAGE_SIZE)
        backend = ReplicatedMemory(nodes)
        clock = Clock()
        manager = RepairManager(backend, clock,
                                policy="scrub_period=100,scrub_batch=4")
        clock.advance(150)
        checked = backend.registry.value("scrub.pages_checked")
        assert checked > 0
        manager.stop_scrub()
        clock.advance(1000)
        assert backend.registry.value("scrub.pages_checked") == checked


class TestShardedRejoin:
    def test_rejoin_is_recover_plus_bookkeeping(self):
        nodes = make_nodes(2)
        backend = ShardedMemory(nodes)
        backend.write_bytes(0, b"A" * 64)
        nodes[0].fail()
        assert backend.degraded
        assert backend.rejoin(nodes[0]) is True
        assert not backend.degraded
        assert backend.registry.value("cluster.rejoins") == 1
        assert backend.read_bytes(0, 64) == b"A" * 64  # content survived

    def test_no_redundancy_means_no_resilver_and_no_scrub(self):
        backend = ShardedMemory(make_nodes(2))
        assert backend.resilver_page(0, 0) == -1
        assert backend.scrub_extent == 0


class TestRejoinIdempotency:
    """Regression: ``rejoin()`` on a member already resilvering must be
    idempotent.

    Before the fix a second ``rejoin()`` mid-resilver re-counted the
    rejoin and re-notified the manager; an impatient caller (or a
    flapping health checker firing rejoin on every probe) inflated
    ``cluster.rejoins`` and could re-arm the resilver clock. Pinned
    ``repair.*`` metrics prove the journal is replayed exactly once.
    """

    def test_double_rejoin_mid_resilver_pins_repair_metrics(self):
        nodes = make_nodes(2)
        backend = ReplicatedMemory(nodes)
        clock = Clock()
        manager = RepairManager(backend, clock,
                                policy="resilver_period=100,resilver_batch=2")
        for page in range(8):
            backend.write_bytes(page * PAGE_SIZE, b"A" * PAGE_SIZE)
        nodes[1].fail()
        for page in range(8):
            backend.write_bytes(page * PAGE_SIZE, bytes([page]) * PAGE_SIZE)
        assert backend.rejoin(nodes[1]) is False
        clock.advance(100)  # mid-resilver: 6 of 8 pages still stale
        assert backend.stale_slots == 6
        started = dict(manager._sync_started)
        # The impatient re-entry: still syncing, answer is still False,
        # and nothing is re-counted or re-armed.
        assert backend.rejoin(nodes[1]) is False
        assert backend.rejoin(1) is False
        assert backend.syncing_members() == [1]
        assert backend.registry.value("cluster.rejoins") == 1
        assert manager._sync_started == started  # sync clock not reset
        clock.advance(400)
        assert backend.stale_slots == 0
        # Pinned: exactly one replay of the 8-page journal, one promote.
        assert backend.registry.value("repair.pages_resilvered") == 8
        assert backend.registry.value("repair.bytes_resilvered") == \
            8 * PAGE_SIZE
        assert backend.registry.value("repair.nodes_promoted") == 1
        assert backend.registry.value("cluster.rejoins") == 1
        assert manager._sync_started == {}

    def test_rejoin_on_healthy_clean_member_is_a_noop(self):
        nodes = make_nodes(2)
        backend = ReplicatedMemory(nodes)
        backend.write_bytes(0, b"A" * PAGE_SIZE)
        assert backend.rejoin(nodes[1]) is True
        assert backend.registry.value("cluster.rejoins") == 0

    def test_double_rejoin_without_manager_retries_fallback_only(self):
        """No manager: the sync fallback can stall (no clean source);
        re-invoking rejoin retries it without re-counting."""
        nodes = make_nodes(2)
        backend = ReplicatedMemory(nodes)
        backend.write_bytes(0, b"A" * PAGE_SIZE)
        nodes[1].fail()
        backend.write_bytes(0, b"B" * PAGE_SIZE)
        nodes[0].fail()  # the only clean source is down
        nodes[1].recover()
        assert backend.rejoin(nodes[1]) is False  # stalled, still syncing
        assert backend.syncing_members() == [1]
        assert backend.rejoin(nodes[1]) is False  # idempotent retry
        assert backend.registry.value("cluster.rejoins") == 1
        nodes[0].recover()
        assert backend.rejoin(nodes[1]) is True  # retry now succeeds
        assert backend.registry.value("cluster.rejoins") == 1
        assert backend.stale_slots == 0
        nodes[0].fail()
        assert backend.read_bytes(0, 64) == b"B" * 64


class TestPrematurePromote:
    """Regression: ``promote()`` while the member's journal is still
    dirty must be refused.

    Before the fix an early promote dropped the member from the syncing
    set while it still held stale pages. The background resilver
    iterates ``syncing_members()``, so the member's journal was orphaned:
    ``stale_slots`` stuck forever, the backend stayed degraded, and the
    manager's ``_sync_started`` entry (its per-member resilver QP
    bookkeeping) leaked. Reads were always journal-protected — asserted
    here too — the lost invariant was repair-progress, not safety.
    """

    def test_promote_refused_while_dirty_then_resilver_completes(self):
        nodes = make_nodes(2)
        backend = ReplicatedMemory(nodes)
        clock = Clock()
        manager = RepairManager(backend, clock,
                                policy="resilver_period=100,resilver_batch=2")
        for page in range(8):
            backend.write_bytes(page * PAGE_SIZE, b"A" * PAGE_SIZE)
        nodes[1].fail()
        for page in range(8):
            backend.write_bytes(page * PAGE_SIZE, bytes([page]) * PAGE_SIZE)
        backend.rejoin(nodes[1])
        clock.advance(100)
        assert backend.stale_slots == 6
        backend.promote(1)  # chaos: promoted mid-resilver
        # Refused: still syncing, counted as a premature promote.
        assert backend.syncing_members() == [1]
        assert backend.registry.value("repair.premature_promotes") == 1
        assert backend.registry.value("repair.nodes_promoted") == 0
        # Reads still avoid the syncing member's stale ranges.
        assert backend.read_bytes(0, 32) == bytes([0]) * 32
        # The resilver was NOT orphaned: the journal drains and the
        # member is promoted exactly once, with no leaked bookkeeping.
        clock.advance(400)
        assert backend.stale_slots == 0
        assert backend.syncing_members() == []
        assert backend.registry.value("repair.nodes_promoted") == 1
        assert backend.registry.value("repair.pages_resilvered") == 8
        assert manager._sync_started == {}
        nodes[0].fail()
        for page in range(8):
            assert backend.read_bytes(page * PAGE_SIZE, 32) == \
                bytes([page]) * 32

    def test_promote_counter_not_preregistered(self):
        """Digest safety: the premature-promote counter is lazy, so
        healthy runs keep their historical metric key set."""
        backend = ReplicatedMemory(make_nodes(2))
        assert "repair.premature_promotes" not in \
            backend.metrics().counters

    def test_promote_of_non_syncing_member_still_a_noop(self):
        backend = ReplicatedMemory(make_nodes(2))
        backend.promote(0)
        assert backend.registry.value("repair.nodes_promoted") == 0
        assert "repair.premature_promotes" not in \
            backend.metrics().counters


class TestMetricsAndWiring:
    def test_counters_are_canonical(self):
        nodes = make_nodes(2)
        backend = ReplicatedMemory(nodes)
        backend.write_bytes(0, b"A" * 64)
        nodes[1].fail()
        backend.write_bytes(0, b"B" * 64)
        assert backend.registry.value(
            "cluster.writes_skipped_dead_replica") == 1
        snap = backend.metrics()
        # Per-replica write-throughs: 2 while healthy + 1 degraded.
        assert snap.counters["cluster.replicated_writes"] == 3
        assert snap.counters["cluster.writes_skipped_dead_replica"] == 1
        assert snap.counters["cluster.stale_slots"] == 1.0
        assert snap.counters["cluster.degraded"] == 1.0

    def test_gauges_track_live_state(self):
        nodes = make_nodes(3)
        backend = ParityStripedMemory(nodes)
        registry = backend.registry
        assert registry.value("cluster.nodes_down") == 0
        nodes[0].fail()
        assert registry.value("cluster.nodes_down") == 1
        backend.write_bytes(0, b"B" * 64)
        assert registry.value("cluster.stale_slots") == 1
        clock = Clock()
        RepairManager(backend, clock, policy="resilver_period=100")
        backend.rejoin(nodes[0])
        assert registry.value("repair.nodes_syncing") == 1
        clock.advance(200)
        assert registry.value("repair.nodes_syncing") == 0

    def test_compute_cluster_repair_and_merged_metrics(self):
        from repro.sim.tenancy import ComputeCluster
        from repro.harness.scenarios import seqread_tenant
        cluster = ComputeCluster(backend="replicated:2",
                                 remote_mem_bytes=32 * MIB,
                                 quantum_us=250.0,
                                 repair="resilver_period=100")
        assert isinstance(cluster.repair, RepairManager)
        cluster.add_tenant(
            "stream",
            __import__("repro.core.spec",
                       fromlist=["SystemSpec"]).SystemSpec(
                kind="dilos-readahead", local_mem_bytes=256 * 1024),
            seqread_tenant(nbytes=1 * MIB, passes=1))
        snap = cluster.run()
        # Backend redundancy state surfaces in the merged snapshot.
        assert "cluster.stale_slots" in snap.counters
        assert "repair.pages_resilvered" in snap.counters
        assert snap.counters["cluster.degraded"] == 0.0

    def test_compute_cluster_repair_needs_cluster_backend(self):
        from repro.sim.tenancy import ComputeCluster
        with pytest.raises(ValueError):
            ComputeCluster(backend="node", repair="resilver_period=100")


class TestEndToEndAcceptance:
    """The issue's acceptance chaos sequence, deterministic fast version:
    kill a member -> degraded writes -> rejoin -> resilver -> kill a
    *different* member -> every byte reads back correctly, for both
    redundant backends under a full DiLOS kernel."""

    def _run(self, backend, nodes, victim, second):
        system = DilosSystem(DilosConfig(local_mem_bytes=512 * 1024,
                                         remote_mem_bytes=2 * MIB),
                             memory_backend=backend)
        RepairManager(backend, system.clock,
                      policy="resilver_period=100,resilver_batch=16")
        region = system.mmap(2 * MIB, name="accept")
        pages = region.size // PAGE_SIZE
        for i in range(pages):
            system.memory.write(region.base + i * PAGE_SIZE,
                                bytes([(i * 7) % 251]) * 48)
        system.clock.advance(5000)
        victim.fail()
        for i in range(pages):
            system.memory.write(region.base + i * PAGE_SIZE,
                                bytes([(i * 11 + 3) % 251]) * 48)
        system.clock.advance(5000)  # cleaner drains; journal fills
        assert backend.stale_slots > 0
        backend.rejoin(victim)
        guard = 0
        while backend.degraded:
            system.clock.advance(500)
            guard += 1
            assert guard < 1000, "resilver never converged"
        second.fail()
        for i in range(pages):
            got = system.memory.read(region.base + i * PAGE_SIZE, 48)
            assert got == bytes([(i * 11 + 3) % 251]) * 48, f"page {i}"

    def test_replicated_full_lifecycle(self):
        nodes = make_nodes(2, capacity=4 * MIB)
        backend = ReplicatedMemory(nodes)
        self._run(backend, nodes, victim=nodes[1], second=nodes[0])
        assert backend.registry.value("cluster.rejoins") == 1
        assert backend.registry.value("repair.pages_resilvered") > 0

    def test_parity_full_lifecycle(self):
        nodes = make_nodes(4, capacity=2 * MIB)
        backend = ParityStripedMemory(nodes)
        self._run(backend, nodes, victim=nodes[0], second=nodes[1])
        assert backend.registry.value("cluster.degraded_writes") > 0
        assert backend.registry.value("repair.pages_resilvered") > 0


class TestRepairDemo:
    """The ``repro repair`` lifecycle (the ``repair_demo`` scenario) on
    both redundant backend families: every journaled page resilvered,
    the rejoined member promoted, the injected rot scrubbed, every page
    verified after a second failure — and identical on a replay."""

    @pytest.mark.parametrize("backend", ["replicated:2", "parity:3+1"])
    def test_lifecycle_ledger_and_replay(self, backend):
        first = SCENARIOS["repair_demo"].build(backend=backend).report
        counters = first["counters"]
        assert first["stale_after_degraded"] > 0
        assert counters["repair.pages_resilvered"] == \
            first["stale_after_degraded"]
        assert counters["repair.nodes_promoted"] == 1
        assert counters["scrub.mismatches"] == 1
        assert counters["scrub.repaired"] == 1
        assert counters["scrub.quarantined"] == 0
        assert first["verified_pages"] == first["pages"] > 0
        assert SCENARIOS["repair_demo"].build(backend=backend).report == first
