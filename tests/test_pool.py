"""Tests for the global pooled allocator (repro.mem.pool) and the
tenant isolation its clients enforce (§5)."""

import pytest

from repro.common.errors import OutOfMemoryError, ProtectionError
from repro.common.units import KIB, MIB, PAGE_SIZE
from repro.baselines.aifm import AifmConfig, AifmRuntime
from repro.baselines.fastswap import FastswapConfig, FastswapSystem
from repro.core import DilosConfig, DilosSystem, SystemSpec
from repro.harness import SYSTEM_KINDS, make_system
from repro.mem.pool import PLACEMENTS, PooledMemory, make_placement
from repro.mem.remote import MemoryNode
from tests.test_spec import smoke_io


def pool_of(nodes=3, slots=8, policy="load"):
    return PooledMemory([MemoryNode(slots * PAGE_SIZE) for _ in range(nodes)],
                        policy=policy)


def node_index(pool, slot):
    return slot // pool.node_slots


def homed(pool, home):
    """A client homed on ``home``: the only way to allocate a slot."""
    return pool.client(f"h{home}", home=home)


class TestPlacementRegistry:
    def test_kinds(self):
        assert set(PLACEMENTS) == {"locality", "load", "pack", "interleave"}

    def test_make_by_name_and_passthrough(self):
        policy = make_placement("locality")
        assert policy.prefers_home
        assert make_placement(policy) is policy
        assert make_placement(None).name == "load"

    def test_unknown_raises_with_choices(self):
        with pytest.raises(ValueError, match="unknown placement policy"):
            make_placement("random")


class TestPolicies:
    def test_locality_prefers_home(self):
        pool = pool_of(policy="locality")
        slots = [homed(pool, 1).alloc_slot() for _ in range(8)]
        assert all(node_index(pool, s) == 1 for s in slots)
        assert pool.registry.snapshot().counters["pool.spills"] == 0

    def test_locality_spills_to_nearest(self):
        pool = pool_of(nodes=3, slots=2, policy="locality")
        client = homed(pool, 1)
        for _ in range(2):
            client.alloc_slot()
        spilled = client.alloc_slot()
        # Home node 1 is full; |0-1| == |2-1| ties break to the lower
        # index.
        assert node_index(pool, spilled) == 0
        assert pool.registry.snapshot().counters["pool.spills"] == 1

    def test_load_balances(self):
        pool = pool_of(policy="load")
        slots = [homed(pool, 0).alloc_slot() for _ in range(6)]
        assert sorted(node_index(pool, s) for s in slots) == [0, 0, 1, 1,
                                                             2, 2]
        # Off-home placement is the policy's job, not a spill.
        assert pool.registry.snapshot().counters["pool.spills"] == 0

    def test_pack_first_fit(self):
        pool = pool_of(nodes=3, slots=2, policy="pack")
        nodes = [node_index(pool, homed(pool, 2).alloc_slot())
                 for _ in range(5)]
        assert nodes == [0, 0, 1, 1, 2]

    def test_interleave_rotates(self):
        pool = pool_of(policy="interleave")
        nodes = [node_index(pool, homed(pool, 0).alloc_slot())
                 for _ in range(6)]
        assert nodes == [0, 1, 2, 0, 1, 2]

    def test_exhaustion_raises(self):
        for policy in PLACEMENTS:
            pool = pool_of(nodes=2, slots=2, policy=policy)
            client = homed(pool, 0)
            for _ in range(4):
                client.alloc_slot()
            with pytest.raises(OutOfMemoryError):
                client.alloc_slot()


class TestSlotEncoding:
    def test_contiguous_per_node(self):
        pool = pool_of(nodes=2, slots=4, policy="pack")
        slots = [homed(pool, 0).alloc_slot() for _ in range(8)]
        assert slots == list(range(8))
        assert [pool.node_of(pool.slot_offset(s)) for s in slots] == \
            [0, 0, 0, 0, 1, 1, 1, 1]

    def test_node_of_bounds(self):
        pool = pool_of(nodes=2, slots=4)
        with pytest.raises(ValueError):
            pool.node_of(8 * PAGE_SIZE)

    def test_free_slot_returns_to_owner(self):
        pool = pool_of(nodes=2, slots=2, policy="pack")
        slot = homed(pool, 0).alloc_slot()
        assert pool.nodes[0].free_slots == 1
        pool.free_slot(slot)
        assert pool.nodes[0].free_slots == 2
        assert pool.registry.snapshot().counters["pool.free"] == 1


class TestDataPath:
    def test_read_write_round_trip(self):
        pool = pool_of(nodes=2, slots=4)
        slot = homed(pool, 0).alloc_slot()
        offset = pool.slot_offset(slot)
        pool.write_bytes(offset, b"u" * PAGE_SIZE)
        assert pool.read_bytes(offset, PAGE_SIZE) == b"u" * PAGE_SIZE

    def test_cross_node_extent(self):
        """An extent spanning the node boundary splits transparently."""
        pool = pool_of(nodes=2, slots=2, policy="pack")
        for _ in range(4):
            homed(pool, 0).alloc_slot()
        boundary = 2 * PAGE_SIZE  # last page of node 0 starts one before
        data = bytes(range(256)) * 32  # 2 pages
        pool.write_bytes(boundary - PAGE_SIZE, data)
        assert pool.read_bytes(boundary - PAGE_SIZE, 2 * PAGE_SIZE) == data

    def test_capacity_sums(self):
        pool = pool_of(nodes=3, slots=8)
        assert pool.capacity == 3 * 8 * PAGE_SIZE
        assert pool.total_slots == 24
        assert pool.free_slots == 24

    def test_resilver_unsupported(self):
        assert pool_of().resilver_page(0, 0) == -1


class TestClients:
    def test_client_carries_home(self):
        pool = pool_of(policy="locality")
        client = pool.client("t0", home=2)
        slot = client.alloc_slot()
        assert node_index(pool, slot) == 2
        offset = client.slot_offset(slot)
        client.write_bytes(offset, b"z" * 16)
        assert client.read_bytes(offset, 16) == b"z" * 16
        assert client.node_of(offset) == 2
        client.free_slot(slot)
        assert pool.free_slots == pool.total_slots

    def test_client_cached_and_home_pinned(self):
        pool = pool_of()
        first = pool.client("t0", home=1)
        assert pool.client("t0", home=1) is first
        with pytest.raises(ValueError, match="already registered"):
            pool.client("t0", home=2)

    def test_bad_home(self):
        with pytest.raises(ValueError, match="no memory node"):
            pool_of(nodes=2).client("t0", home=2)

    def test_clients_gauge(self):
        pool = pool_of()
        pool.client("a", 0)
        pool.client("b", 1)
        assert pool.registry.snapshot().counters["pool.clients"] == 2.0


class TestTenantTeardown:
    """Regression: a departing homed client must return ALL its slots.

    Before the fix the pool had no record of which client held which
    slot, so a tenant that exited without freeing leaked its pages
    forever — and because homed allocations concentrate on the policy's
    favored nodes, ``pool.stranded_slots`` drifted upward with every
    tenant generation until the home node wedged.
    """

    def test_release_client_returns_all_slots(self):
        pool = pool_of(nodes=2, slots=8, policy="locality")
        client = pool.client("t0", home=0)
        slots = [client.alloc_slot() for _ in range(5)]
        client.free_slot(slots[0])  # tenant freed one itself
        freed = pool.release_client("t0")
        assert freed == 4
        assert pool.free_slots == pool.total_slots
        snap = pool.registry.snapshot()
        assert snap.counters["pool.reclaimed_slots"] == 4
        assert snap.counters["pool.free"] == 5

    def test_stranded_slots_do_not_drift_across_churn(self):
        pool = pool_of(nodes=2, slots=8, policy="locality")
        stranded = []
        for gen in range(6):
            name = f"tenant{gen}"
            client = pool.client(name, home=0)
            for _ in range(4):
                client.alloc_slot()
            pool.release_client(name)
            stranded.append(pool.stranded_slots)
        # Red case: generation g left 4*g slots leaked on node 0, so
        # stranded_slots climbed 4, 8, ... and gen 2+ spilled or OOMed.
        assert stranded == [0] * 6
        assert pool.free_slots == pool.total_slots
        assert pool.registry.snapshot().counters["pool.clients"] == 0.0

    def test_release_unknown_client_raises(self):
        with pytest.raises(KeyError, match="ghost"):
            pool_of().release_client("ghost")

    def test_release_allows_name_and_home_reuse(self):
        pool = pool_of()
        pool.client("t0", home=0)
        pool.release_client("t0")
        assert pool.client("t0", home=1).home == 1


class TestPlacementMetrics:
    def test_stranding_under_locality(self):
        pool = pool_of(nodes=2, slots=8, policy="locality")
        for _ in range(8):
            homed(pool, 0).alloc_slot()
        # Node 0 exhausted, node 1 idle: its free space is stranded.
        assert pool.stranded_slots == 8
        assert pool.frag_imbalance == pytest.approx(1.0)

    def test_balanced_pool_strands_nothing(self):
        pool = pool_of(nodes=2, slots=8, policy="load")
        for _ in range(8):
            homed(pool, 0).alloc_slot()
        assert pool.stranded_slots == 0
        assert pool.frag_imbalance == 0.0

    def test_metric_names(self):
        pool = pool_of(nodes=2)
        snap = pool.registry.snapshot()
        for name in ("pool.alloc", "pool.free", "pool.spills",
                     "pool.stranded_slots", "pool.frag_imbalance",
                     "pool.clients", "pool.n0.free_slots",
                     "pool.n1.free_slots"):
            assert name in snap.counters


class TestBackendSpec:
    def test_equal_capacity_enforced(self):
        with pytest.raises(ValueError):
            PooledMemory([MemoryNode(2 * PAGE_SIZE),
                          MemoryNode(4 * PAGE_SIZE)])

    def test_raw_pool_is_not_a_backend(self):
        """Kernels reach pooled memory only through a PoolClient: the raw
        pool has no ``alloc_slot``, so a spec bound to it fails the
        backend surface check instead of booting without ownership
        checks."""
        pool = pool_of()
        assert not hasattr(pool, "alloc_slot")
        with pytest.raises(TypeError, match="alloc_slot"):
            SystemSpec(kind="dilos-readahead", local_mem_bytes=256 * KIB,
                       backend=pool).boot()

    @pytest.mark.parametrize("boot", [
        lambda pool: DilosSystem(DilosConfig(local_mem_bytes=256 * KIB,
                                             remote_mem_bytes=8 * MIB),
                                 memory_backend=pool),
        lambda pool: FastswapSystem(
            FastswapConfig(local_mem_bytes=256 * KIB,
                           remote_mem_bytes=8 * MIB),
            memory_backend=pool),
        lambda pool: AifmRuntime(AifmConfig(local_mem_bytes=256 * KIB,
                                            remote_mem_bytes=8 * MIB),
                                 memory_backend=pool),
    ], ids=["dilos", "fastswap", "aifm"])
    def test_kernel_constructors_refuse_the_raw_pool(self, boot):
        """Each kernel constructor runs the backend check itself, so a
        kernel built directly (not through ``SystemSpec.boot``) cannot
        boot on the raw pool either."""
        with pytest.raises(TypeError, match="alloc_slot"):
            boot(pool_of())

    def test_aifm_cannot_overwrite_a_client_slot(self):
        """AIFM bump-allocates its remote heap from offset 0, so on the
        raw pool its evacuations overwrote the first client's slot. Now
        construction raises before any write, and the client still reads
        its own bytes."""
        pool = pool_of(nodes=2)
        client = pool.client("victim", home=0)
        offset = client.slot_offset(client.alloc_slot())
        client.write_bytes(offset, b"v" * 8)
        try:
            runtime = AifmRuntime(AifmConfig(local_mem_bytes=4 * PAGE_SIZE,
                                             remote_mem_bytes=8 * MIB),
                                  memory_backend=pool)
        except TypeError as exc:
            assert "alloc_slot" in str(exc)
        else:  # evacuate twice the heap budget onto the pool
            for _ in range(8):
                runtime.allocate(PAGE_SIZE, data=b"a" * PAGE_SIZE)
        assert client.read_bytes(offset, 8) == b"v" * 8

    def test_aifm_refuses_a_pool_client(self):
        """A pool client passes the backend surface check, but AIFM
        never calls ``alloc_slot``: it booted on a client, and its first
        evacuation wrote offset 0, a slot the client does not own
        (``ProtectionError``). Construction now raises, naming AIFM's
        bump allocation."""
        client = pool_of(nodes=2).client("a")
        with pytest.raises(ValueError, match="bump-allocates"):
            runtime = AifmRuntime(AifmConfig(local_mem_bytes=4 * PAGE_SIZE,
                                             remote_mem_bytes=8 * MIB),
                                  memory_backend=client)
            for _ in range(8):  # evacuate twice the heap budget
                runtime.allocate(PAGE_SIZE, data=b"a" * PAGE_SIZE)


def dilos_on(client, local=1 * MIB):
    return DilosSystem(DilosConfig(local_mem_bytes=local,
                                   remote_mem_bytes=32 * MIB),
                       memory_backend=client)


class TestTenantIsolation:
    """A :class:`PoolClient` is a protection domain: it reads, writes and
    frees only the slots it allocated (§5's protection keys)."""

    def test_slot_interface(self):
        pool = pool_of(nodes=1, slots=4)
        client = pool.client("a")
        slots = [client.alloc_slot() for _ in range(4)]
        assert len(set(slots)) == 4
        with pytest.raises(OutOfMemoryError):
            client.alloc_slot()
        client.free_slot(slots[0])
        assert client.free_slots == 1

    def test_capacity_enforced(self):
        """Clients draw on one pool-wide capacity: once one tenant holds
        most of it, another is refused past what is left."""
        pool = pool_of(nodes=2, slots=4)
        big, small = pool.client("big"), pool.client("small")
        for _ in range(6):
            big.alloc_slot()
        held = [small.alloc_slot() for _ in range(2)]
        with pytest.raises(OutOfMemoryError):
            small.alloc_slot()
        assert pool.free_slots == 0
        small.free_slot(held[0])
        assert small.alloc_slot() == held[0]

    def test_own_slots_round_trip(self):
        pool = pool_of(nodes=2, slots=2, policy="pack")
        client = pool.client("a")
        for _ in range(4):
            client.alloc_slot()
        # An extent over two owned slots on two nodes.
        data = bytes(range(256)) * 32
        client.write_bytes(PAGE_SIZE, data)
        assert client.read_bytes(PAGE_SIZE, 2 * PAGE_SIZE) == data
        assert client.read_bytes(PAGE_SIZE + 100, 0) == b""

    def test_cross_tenant_access_rejected(self):
        pool = pool_of()
        victim, attacker = pool.client("victim"), pool.client("attacker")
        slot = victim.alloc_slot()
        attacker.alloc_slot()
        offset = victim.slot_offset(slot)
        victim.write_bytes(offset, b"credit card numbers")
        with pytest.raises(ProtectionError):
            attacker.read_bytes(offset, 19)
        with pytest.raises(ProtectionError):
            attacker.write_bytes(offset, b"overwrite!")
        with pytest.raises(ProtectionError):
            attacker.free_slot(slot)
        assert victim.read_bytes(offset, 19) == b"credit card numbers"
        assert pool.free_slots == pool.total_slots - 2

    def test_forged_and_out_of_pool_offsets_rejected(self):
        pool = pool_of(nodes=2, slots=4)
        client = pool.client("a")
        client.alloc_slot()
        theirs = pool.client("b").alloc_slot()
        for offset in (5 * PAGE_SIZE,              # never allocated
                       pool.slot_offset(theirs),   # another client's slot
                       pool.capacity, -PAGE_SIZE):   # outside the pool
            with pytest.raises(ProtectionError):
                client.read_bytes(offset, 8)
            with pytest.raises(ProtectionError):
                client.write_bytes(offset, b"x")

    def test_access_running_past_own_slot_rejected(self):
        pool = pool_of(nodes=1, slots=4)
        mine_client, their_client = pool.client("a"), pool.client("b")
        mine, theirs = mine_client.alloc_slot(), their_client.alloc_slot()
        assert theirs == mine + 1
        their_client.write_bytes(pool.slot_offset(theirs), b"b" * 16)
        mine_client.write_bytes(pool.slot_offset(mine), b"a" * PAGE_SIZE)
        end = pool.slot_offset(theirs)
        with pytest.raises(ProtectionError):
            mine_client.read_bytes(end - 8, 16)
        with pytest.raises(ProtectionError):
            mine_client.write_bytes(end - 8, b"x" * 16)
        # Rejected before either page moved.
        assert mine_client.read_bytes(end - 8, 8) == b"a" * 8
        assert their_client.read_bytes(end, 16) == b"b" * 16

    def test_released_client_loses_slots_to_successor(self):
        pool = pool_of(nodes=1, slots=4)
        old = pool.client("a")
        slot = old.alloc_slot()
        pool.release_client("a")
        new = pool.client("a")
        # Nodes reuse freed slots last-freed-first: the successor
        # registered under the released name gets the same slot back.
        assert new is not old and new.alloc_slot() == slot
        offset = pool.slot_offset(slot)
        new.write_bytes(offset, b"new")
        with pytest.raises(ProtectionError):
            old.read_bytes(offset, 3)
        with pytest.raises(ProtectionError):
            old.write_bytes(offset, b"old")
        with pytest.raises(ProtectionError):
            old.free_slot(slot)
        with pytest.raises(ProtectionError):
            old.alloc_slot()
        assert new.read_bytes(offset, 3) == b"new"

    def test_released_guest_cannot_fault_in_reused_slots(self):
        pool = PooledMemory([MemoryNode(16 * MIB)])
        guest = dilos_on(pool.client("a"), local=256 * KIB)
        region = guest.mmap(1 * MIB, name="ws")
        for va in range(region.base, region.base + region.size, PAGE_SIZE):
            guest.memory.write(va, b"aaaaaaaa")
        # The cleaner writes every dirty page back, so the next fault
        # evicts a clean page and goes straight to the fetch.
        guest.clock.advance(5000)
        freed = pool.release_client("a")
        assert freed > 0  # the working set overflowed local memory
        other = pool.client("b")
        for _ in range(freed):
            other.write_bytes(other.slot_offset(other.alloc_slot()),
                              b"bbbbbbbb")
        # The first page was evicted long ago; its slot is b's now.
        with pytest.raises(ProtectionError):
            guest.memory.read(region.base, 8)

    def test_two_libos_share_one_memory_node(self):
        """The §5 deployment: two DiLOS guests, one memory node, full
        isolation."""
        pool = PooledMemory([MemoryNode(64 * MIB)])
        guests = [dilos_on(pool.client(name))
                  for name in ("tenant-a", "tenant-b")]
        # Identical virtual addresses must not collide remotely.
        patterns = (b"\xAA" * 64, b"\x55" * 64)
        mappings = []
        for guest, pattern in zip(guests, patterns):
            mapping = guest.mmap(4 * MIB, name="ws")
            for va in range(mapping.base, mapping.base + mapping.size,
                            PAGE_SIZE):
                guest.memory.write(va, pattern)
            mappings.append(mapping)
        for guest, mapping, pattern in zip(guests, mappings, patterns):
            guest.clock.advance(5000)
            for va in range(mapping.base, mapping.base + mapping.size,
                            PAGE_SIZE):
                assert guest.memory.read(va, 64) == pattern

    @pytest.mark.parametrize(
        "kind", [k for k in SYSTEM_KINDS if not k.startswith("aifm")])
    def test_paging_kernel_runs_on_pool_client(self, kind):
        """AIFM is left out: it bump-allocates the remote heap from
        offset 0, so it cannot run on a slot-allocated shared pool (both
        cluster classes reject it)."""
        pool = PooledMemory([MemoryNode(4 * MIB, name=f"pool{i}")
                             for i in range(4)], policy="locality")
        system = make_system(kind, 512 * KIB, remote_bytes=16 * MIB,
                             backend=pool.client("t0"))
        smoke_io(system)
