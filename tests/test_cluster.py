"""Unit + integration tests for multi-node remote memory (§5.1 extension):
sharding, replication with failover, parity striping with reconstruction,
and full DiLOS runs on clustered backends under failure injection."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.clock import Clock
from repro.common.errors import OutOfMemoryError
from repro.common.units import MIB, PAGE_SIZE
from repro.core import DilosConfig, DilosSystem
from repro.mem.cluster import ParityStripedMemory, ReplicatedMemory, ShardedMemory
from repro.mem.pool import PooledMemory
from repro.mem.remote import MemoryNode, NodeFailedError
from repro.net.latency import LatencyModel
from repro.net.qp import NetStats, QueuePair


def make_nodes(n, capacity=4 * MIB):
    return [MemoryNode(capacity, name=f"m{i}") for i in range(n)]


class TestSharded:
    def test_requires_equal_nodes(self):
        with pytest.raises(ValueError):
            ShardedMemory([MemoryNode(1 * MIB)])
        with pytest.raises(ValueError):
            ShardedMemory([MemoryNode(1 * MIB), MemoryNode(2 * MIB)])

    def test_capacity_aggregates(self):
        cluster = ShardedMemory(make_nodes(3))
        assert cluster.capacity == 12 * MIB
        assert cluster.total_slots == 3 * (4 * MIB // PAGE_SIZE)

    def test_roundtrip_within_page(self):
        cluster = ShardedMemory(make_nodes(2))
        slot = cluster.alloc_slot()
        off = cluster.slot_offset(slot)
        cluster.write_bytes(off + 100, b"sharded!")
        assert cluster.read_bytes(off + 100, 8) == b"sharded!"

    def test_cross_page_io_split(self):
        cluster = ShardedMemory(make_nodes(2))
        cluster.write_bytes(PAGE_SIZE - 3, b"ABCDEF")
        assert cluster.read_bytes(PAGE_SIZE - 3, 6) == b"ABCDEF"

    def test_slots_spread_over_nodes(self):
        nodes = make_nodes(4)
        cluster = ShardedMemory(nodes)
        for _ in range(64):
            cluster.alloc_slot()
        used = [n.total_slots - n.free_slots for n in nodes]
        assert all(u == 16 for u in used)

    def test_exhaustion(self):
        cluster = ShardedMemory(make_nodes(2, capacity=2 * PAGE_SIZE))
        for _ in range(4):
            cluster.alloc_slot()
        with pytest.raises(OutOfMemoryError):
            cluster.alloc_slot()

    def test_free_slot_roundtrip(self):
        cluster = ShardedMemory(make_nodes(2))
        slot = cluster.alloc_slot()
        before = cluster.free_slots
        cluster.free_slot(slot)
        assert cluster.free_slots == before + 1


class TestReplicated:
    def test_writes_fan_out(self):
        nodes = make_nodes(3)
        cluster = ReplicatedMemory(nodes)
        cluster.write_bytes(64, b"copy-me")
        for node in nodes:
            assert node.read_bytes(64, 7) == b"copy-me"

    def test_failover_read(self):
        nodes = make_nodes(2)
        cluster = ReplicatedMemory(nodes)
        cluster.write_bytes(0, b"durable")
        nodes[0].fail()
        assert cluster.read_bytes(0, 7) == b"durable"
        assert cluster.registry.value("cluster.failover_reads") == 1

    def test_all_dead_raises(self):
        nodes = make_nodes(2)
        cluster = ReplicatedMemory(nodes)
        for node in nodes:
            node.fail()
        with pytest.raises(NodeFailedError):
            cluster.read_bytes(0, 1)
        with pytest.raises(NodeFailedError):
            cluster.write_bytes(0, b"x")

    def test_write_survives_dead_mirror(self):
        nodes = make_nodes(3)
        cluster = ReplicatedMemory(nodes)
        nodes[2].fail()
        cluster.write_bytes(0, b"two-copies")
        assert cluster.registry.value("cluster.writes_skipped_dead_replica") == 1
        assert cluster.read_bytes(0, 10) == b"two-copies"


class TestParityStriped:
    def test_needs_three_nodes(self):
        with pytest.raises(ValueError):
            ParityStripedMemory(make_nodes(2))

    def test_roundtrip_healthy(self):
        cluster = ParityStripedMemory(make_nodes(3))
        cluster.write_bytes(0, b"raid5")
        assert cluster.read_bytes(0, 5) == b"raid5"

    def test_reconstruction_after_data_node_failure(self):
        nodes = make_nodes(4)
        cluster = ParityStripedMemory(nodes)
        payloads = {}
        for page in range(12):
            data = bytes([(page * 37 + j) % 256 for j in range(64)])
            cluster.write_bytes(page * PAGE_SIZE, data)
            payloads[page] = data
        nodes[1].fail()  # one data node dies
        for page, data in payloads.items():
            assert cluster.read_bytes(page * PAGE_SIZE, 64) == data, page
        assert cluster.registry.value("cluster.degraded_reads") > 0
        assert cluster.registry.value("cluster.reconstruction_bytes") > 0

    def test_degraded_write_recoverable(self):
        nodes = make_nodes(3)
        cluster = ParityStripedMemory(nodes)
        nodes[0].fail()
        # Page 0 routes to data node 0 (global page 0 % k=2 == 0).
        cluster.write_bytes(0, b"ghost-write")
        assert cluster.registry.value("cluster.degraded_writes") == 1
        assert cluster.read_bytes(0, 11) == b"ghost-write"

    def test_parity_node_failure_is_tolerated(self):
        nodes = make_nodes(3)
        cluster = ParityStripedMemory(nodes)
        nodes[-1].fail()  # parity down
        cluster.write_bytes(0, b"no-parity")
        assert cluster.read_bytes(0, 9) == b"no-parity"
        assert cluster.registry.value("cluster.parity_writes_skipped") == 1


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31),
       st.integers(min_value=3, max_value=5),
       st.integers(min_value=0, max_value=4))
def test_parity_reconstruction_property(seed, n_nodes, fail_index):
    """Any single data-node failure is fully recoverable."""
    rng = random.Random(seed)
    nodes = make_nodes(n_nodes, capacity=64 * PAGE_SIZE)
    cluster = ParityStripedMemory(nodes)
    shadow = {}
    for _ in range(30):
        page = rng.randrange(32)
        data = bytes(rng.randrange(256) for _ in range(32))
        cluster.write_bytes(page * PAGE_SIZE, data)
        shadow[page] = data
    victim = fail_index % (n_nodes - 1)
    nodes[victim].fail()
    for page, data in shadow.items():
        assert cluster.read_bytes(page * PAGE_SIZE, 32) == data


def _pool_client_owning_slot_0():
    client = PooledMemory(make_nodes(2)).client("t0")
    assert client.alloc_slot() == 0  # a client reads only its own slots
    return client


_BACKENDS = {
    "sharded": lambda: ShardedMemory(make_nodes(2)),
    "replicated": lambda: ReplicatedMemory(make_nodes(2)),
    "parity": lambda: ParityStripedMemory(make_nodes(3)),
    "pooled": lambda: PooledMemory(make_nodes(2)),
    "pool_client": _pool_client_owning_slot_0,
}


@pytest.mark.parametrize("kind", sorted(_BACKENDS))
def test_negative_read_size_rejected_before_the_wire(kind):
    """Every backend rejects a negative read size, as a single node does,
    before any member or the wire sees it: looping ``while size > 0``
    returned b"" and let the QP move its wire time back and subtract the
    size from the byte counter."""
    clock, stats = Clock(), NetStats()
    qp = QueuePair("q", clock, LatencyModel(), _BACKENDS[kind](), stats)
    qp.post_read(0, PAGE_SIZE)

    def wire():
        return (qp._wire_free, clock.now, stats.bytes_read, stats.ops_read,
                qp.posted)

    before = wire()
    with pytest.raises(ValueError):
        qp.post_read(0, -PAGE_SIZE)
    assert wire() == before


class TestDilosOnClusters:
    def run_workload(self, backend):
        system = DilosSystem(DilosConfig(local_mem_bytes=1 * MIB,
                                         remote_mem_bytes=4 * MIB),
                             memory_backend=backend)
        region = system.mmap(4 * MIB, name="ws")
        pages = region.size // PAGE_SIZE
        for i in range(pages):
            system.memory.write(region.base + i * PAGE_SIZE,
                                bytes([(i * 7) % 251]) * 48)
        return system, region, pages

    def verify(self, system, region, pages):
        for i in range(pages):
            got = system.memory.read(region.base + i * PAGE_SIZE, 48)
            assert got == bytes([(i * 7) % 251]) * 48, f"page {i}"

    def test_dilos_on_sharded_cluster(self):
        backend = ShardedMemory(make_nodes(4))
        system, region, pages = self.run_workload(backend)
        self.verify(system, region, pages)
        # Traffic actually spread over multiple nodes.
        touched = sum(1 for n in backend.nodes
                      if n.total_slots - n.free_slots > 0)
        assert touched >= 3

    def test_dilos_survives_primary_failure_with_replication(self):
        nodes = make_nodes(2, capacity=8 * MIB)
        backend = ReplicatedMemory(nodes)
        system, region, pages = self.run_workload(backend)
        system.clock.advance(5000)  # everything cleaned to both replicas
        nodes[0].fail()
        self.verify(system, region, pages)
        assert backend.registry.value("cluster.failover_reads") > 0

    def test_dilos_survives_data_node_loss_with_parity(self):
        nodes = make_nodes(4, capacity=4 * MIB)
        backend = ParityStripedMemory(nodes)
        system, region, pages = self.run_workload(backend)
        system.clock.advance(5000)
        nodes[2].fail()
        self.verify(system, region, pages)
        assert backend.registry.value("cluster.degraded_reads") > 0

    def test_unprotected_node_loss_is_fatal(self):
        """Without redundancy a dead node loses data — the §5.1 motivation."""
        nodes = make_nodes(2, capacity=8 * MIB)
        backend = ShardedMemory(nodes)
        system, region, pages = self.run_workload(backend)
        system.clock.advance(5000)
        nodes[0].fail()
        with pytest.raises(NodeFailedError):
            self.verify(system, region, pages)
