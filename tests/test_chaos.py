"""Failure-injection ("chaos") property tests.

Hypothesis drives random workloads with a memory-node crash injected at a
random point; redundant backends must preserve every byte, keep serving
reads and writes, and the paging invariants (no dirty eviction, no frame
leaks) must hold throughout.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.common.units import MIB, PAGE_SIZE
from repro.core import DilosConfig, DilosSystem
from repro.mem.cluster import ParityStripedMemory, ReplicatedMemory
from repro.mem.remote import MemoryNode


def build(backend_kind, n_nodes):
    nodes = [MemoryNode(16 * MIB, name=f"m{i}") for i in range(n_nodes)]
    if backend_kind == "replicated":
        backend = ReplicatedMemory(nodes)
        # Any replica may die.
        killable = list(range(n_nodes))
    else:
        backend = ParityStripedMemory(nodes)
        # Any single node (data or parity) may die.
        killable = list(range(n_nodes))
    system = DilosSystem(DilosConfig(local_mem_bytes=1 * MIB,
                                     remote_mem_bytes=16 * MIB),
                         memory_backend=backend)
    return system, nodes, killable


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       backend_kind=st.sampled_from(["replicated", "parity"]),
       n_nodes=st.integers(min_value=3, max_value=4),
       fail_point=st.floats(min_value=0.2, max_value=0.8))
def test_random_workload_survives_single_node_crash(
        seed, backend_kind, n_nodes, fail_point):
    system, nodes, killable = build(backend_kind, n_nodes)
    region = system.mmap(4 * MIB, name="chaos")
    pages = region.size // PAGE_SIZE
    rng = random.Random(seed)
    shadow = {}
    steps = 600
    crash_step = int(steps * fail_point)
    for step in range(steps):
        if step == crash_step:
            system.clock.advance(3000)  # let the cleaner drain first
            nodes[rng.choice(killable)].fail()
        page = rng.randrange(pages)
        va = region.base + page * PAGE_SIZE + rng.randrange(0, 64) * 8
        if page in shadow and rng.random() < 0.45:
            got = system.memory.read(region.base + page * PAGE_SIZE, 16)
            assert got == shadow[page], (
                f"{backend_kind}: page {page} corrupted after crash")
        else:
            payload = bytes([step % 251] * 16)
            system.memory.write(region.base + page * PAGE_SIZE, payload)
            shadow[page] = payload
    # Full verification sweep at the end.
    for page, payload in shadow.items():
        assert system.memory.read(region.base + page * PAGE_SIZE, 16) == \
            payload
    # Paging invariants survived the chaos too.
    assert system.kernel.registry.value("reclaim.direct") == 0
    used = system.frames.used_frames
    resident = system.kernel.page_manager.resident_pages
    assert used >= resident  # frames backing the LRU all accounted for


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_replicated_double_fault_keeps_last_replica_serving(seed):
    """With three replicas, two crashes still leave a serving copy."""
    nodes = [MemoryNode(16 * MIB, name=f"m{i}") for i in range(3)]
    backend = ReplicatedMemory(nodes)
    system = DilosSystem(DilosConfig(local_mem_bytes=1 * MIB,
                                     remote_mem_bytes=16 * MIB),
                         memory_backend=backend)
    region = system.mmap(3 * MIB)
    pages = region.size // PAGE_SIZE
    rng = random.Random(seed)
    for i in range(pages):
        system.memory.write(region.base + i * PAGE_SIZE,
                            bytes([i % 251]) * 32)
    system.clock.advance(5000)
    victims = rng.sample(range(3), 2)
    for v in victims:
        nodes[v].fail()
    for i in range(0, pages, 5):
        assert system.memory.read(region.base + i * PAGE_SIZE, 32) == \
            bytes([i % 251]) * 32
