#!/usr/bin/env python3
"""Quickstart: boot a DiLOS computing node, use disaggregated memory.

Boots a simulated computing node with a small local DRAM attached to a
remote memory node, maps a working set four times larger than local
memory, writes and reads it back through the paging subsystem, and prints
what happened underneath: faults, prefetches, evictions, wire traffic.

Run:  python examples/quickstart.py
"""

from repro.common.units import MIB, PAGE_SIZE, format_bytes
from repro.core import DilosConfig, DilosSystem


def main() -> None:
    config = DilosConfig(
        local_mem_bytes=4 * MIB,      # the computing node's local cache
        remote_mem_bytes=256 * MIB,   # the memory node
        prefetcher="readahead",       # none | readahead | trend
    )
    system = DilosSystem(config)
    print(f"booted {system.name}: {format_bytes(config.local_mem_bytes)} "
          f"local, {format_bytes(config.remote_mem_bytes)} remote")

    # MAP_DDC memory: pages migrate between local DRAM and the memory node.
    region = system.mmap(16 * MIB, name="working-set")
    pages = region.size // PAGE_SIZE
    print(f"mapped {format_bytes(region.size)} of disaggregated memory "
          f"({pages} pages, 4x local DRAM)")

    print("writing a pattern over the whole region ...")
    for i in range(pages):
        system.memory.write(region.base + i * PAGE_SIZE,
                            i.to_bytes(8, "little") * 8)

    print("reading it back sequentially ...")
    t0 = system.clock.now
    corrupt = 0
    for i in range(pages):
        data = system.memory.read(region.base + i * PAGE_SIZE, 64)
        if data != i.to_bytes(8, "little") * 8:
            corrupt += 1
    elapsed = system.clock.now - t0

    metrics = system.metrics()
    throughput = pages * PAGE_SIZE / elapsed / 1000.0
    print(f"\nread {format_bytes(pages * PAGE_SIZE)} in "
          f"{elapsed / 1000:.2f} simulated ms  ->  {throughput:.2f} GB/s")
    print(f"data integrity: {'OK' if corrupt == 0 else f'{corrupt} BAD PAGES'}")
    print("\nwhat the paging subsystem did:")
    for key in ("fault.major", "fault.minor", "fault.first_touch",
                "prefetch.issued", "reclaim.pages_evicted",
                "reclaim.pages_cleaned", "reclaim.direct"):
        print(f"  {key:22s} {metrics.value(key):>10,}")
    print(f"  {'wire bytes read':22s} "
          f"{format_bytes(metrics.value('net.bytes_read')):>10}")
    print(f"  {'wire bytes written':22s} "
          f"{format_bytes(metrics.value('net.bytes_written')):>10}")
    print(f"  {'prefetch hit ratio':22s} "
          f"{metrics.value('prefetch.hit_ratio'):>10.2f}")
    assert corrupt == 0
    assert metrics.value("reclaim.direct") == 0, \
        "DiLOS must never reclaim on the fault path"
    print("\nnote: reclaim.direct == 0 — reclamation stayed in the "
          "background, the paper's central design goal.")


if __name__ == "__main__":
    main()
