#!/usr/bin/env python3
"""Fault-tolerant disaggregated memory: surviving a memory-node crash.

§5.1 leaves multi-node support and fault tolerance as future work and
names the standard recipes. This example runs the same DiLOS application
on three remote-memory backends, kills a memory node mid-run, and shows
who survives:

* sharded (capacity only)      -> data loss;
* replicated (primary+mirror)  -> reads fail over, zero data loss;
* parity-striped (RAID-5-ish)  -> pages rebuilt by XOR, zero data loss.

Run:  python examples/cluster_failover.py
"""

from repro.common.units import MIB, PAGE_SIZE, format_bytes
from repro.core import DilosConfig, DilosSystem
from repro.mem.cluster import ParityStripedMemory, ReplicatedMemory, ShardedMemory
from repro.mem.remote import MemoryNode, NodeFailedError

WORKING_SET = 8 * MIB


def run_scenario(label, backend, victim):
    config = DilosConfig(local_mem_bytes=1 * MIB, remote_mem_bytes=32 * MIB)
    system = DilosSystem(config, memory_backend=backend)
    region = system.mmap(WORKING_SET, name="app")
    pages = region.size // PAGE_SIZE
    for i in range(pages):
        system.memory.write(region.base + i * PAGE_SIZE,
                            i.to_bytes(4, "little") * 8)
    system.clock.advance(8000)  # background cleaning drains to the cluster

    victim.fail()  # <- a memory node crashes

    corrupt = unreachable = 0
    for i in range(pages):
        try:
            data = system.memory.read(region.base + i * PAGE_SIZE, 32)
        except NodeFailedError:
            unreachable += 1
            continue
        if data != i.to_bytes(4, "little") * 8:
            corrupt += 1
    extras = [f"{key}={backend.registry.value(key):,}"
              for key in ("cluster.failover_reads", "cluster.degraded_reads",
                          "cluster.reconstruction_bytes")
              if backend.registry.value(key)]
    status = ("OK — all data intact" if corrupt == unreachable == 0
              else f"LOST {unreachable} pages unreachable, {corrupt} corrupt")
    print(f"  {label:28s} {status}"
          + (f"  [{', '.join(extras)}]" if extras else ""))
    return unreachable == corrupt == 0


def main() -> None:
    print(f"writing {format_bytes(WORKING_SET)} through DiLOS, then killing "
          f"one memory node:\n")

    nodes = [MemoryNode(16 * MIB, name=f"shard{i}") for i in range(2)]
    sharded_ok = run_scenario("sharded (no redundancy)",
                              ShardedMemory(nodes), victim=nodes[0])

    nodes = [MemoryNode(32 * MIB, name=f"replica{i}") for i in range(2)]
    replicated_ok = run_scenario("replicated (primary+mirror)",
                                 ReplicatedMemory(nodes), victim=nodes[0])

    nodes = [MemoryNode(16 * MIB, name=f"stripe{i}") for i in range(4)]
    parity_ok = run_scenario("parity-striped (3 data + 1 P)",
                             ParityStripedMemory(nodes), victim=nodes[1])

    print("\n-> replication pays 2x memory, parity pays 1/k extra;")
    print("   both keep an unmodified DiLOS application running through a")
    print("   memory-node crash.")
    assert not sharded_ok and replicated_ok and parity_ok


if __name__ == "__main__":
    main()
