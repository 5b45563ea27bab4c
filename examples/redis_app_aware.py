#!/usr/bin/env python3
"""Redis on DiLOS: general-purpose prefetchers vs the app-aware guide.

Reproduces the §6.3 story end-to-end at example scale:

* GET workloads — prefetchers help once objects span multiple pages;
* LRANGE over quicklists — pointer chasing defeats readahead and
  trend-based prefetching, but the app-aware guide (Figure 11) chases
  node structs with subpage fetches and wins decisively;
* guided paging (Figure 12) — after DEL-ing 70% of a keyspace, the
  allocator guide's scatter-gather transfers skip the dead bytes.

Run:  python examples/redis_app_aware.py
"""

from repro.common.units import MIB, format_bytes
from repro.harness import local_bytes_for, make_system
from repro.alloc import Mimalloc, MimallocGuide
from repro.apps.redis import (
    DelGetWorkload,
    GetWorkload,
    LRangeWorkload,
    RedisPrefetchGuide,
    RedisServer,
)

VARIANTS = ("dilos-none", "dilos-readahead", "dilos-trend", "dilos-app-aware")


def build_server(variant, footprint, guided_paging=False):
    guide = None
    kind = variant
    if variant == "dilos-app-aware":
        kind = "dilos-readahead"
        guide = RedisPrefetchGuide()
    system = make_system(kind, local_bytes_for(footprint, 0.125),
                         remote_bytes=512 * MIB)
    alloc = Mimalloc(system, arena_bytes=256 * MIB)
    if guided_paging:
        system.kernel.register_allocator_guide(MimallocGuide(alloc))
    return RedisServer(system, alloc, guide=guide)


def throughput_section() -> None:
    print("== request throughput at 12.5% local memory ==")
    header = f"{'variant':18s} {'GET 64KB':>12s} {'LRANGE':>12s}"
    print(header)
    for variant in VARIANTS:
        get_wl = GetWorkload(value_size=65536, n_keys=100, n_queries=300)
        server = build_server(variant, get_wl.footprint_bytes)
        get_wl.populate(server)
        server.system.clock.advance(5000)
        get_rps = get_wl.drive(server).requests_per_second

        lr_wl = LRangeWorkload(n_lists=300, elems_per_list=64, n_queries=500)
        server = build_server(variant, lr_wl.footprint_bytes)
        lr_wl.populate(server)
        server.system.clock.advance(5000)
        lr_rps = lr_wl.drive(server).requests_per_second
        print(f"{variant:18s} {get_rps:>10,.0f}/s {lr_rps:>10,.0f}/s")
    print("-> readahead/trend help GET but not LRANGE;")
    print("   the app-aware guide wins LRANGE by chasing quicklist nodes.\n")


def guided_paging_section() -> None:
    print("== guided paging: wire traffic after DEL-ing 70% of keys ==")
    for guided in (False, True):
        wl = DelGetWorkload(n_keys=6000, value_bytes=128, n_queries=1500)
        server = build_server("dilos-none", wl.footprint_bytes,
                              guided_paging=guided)
        wl.populate(server)
        server.system.clock.advance(5000)
        wl.run_del_phase(server)
        server.system.clock.advance(8000)
        stats = server.system.kernel.comm.stats
        before = stats.total_bytes
        wl.run_get_phase(server)
        label = "guided (SG vectors)" if guided else "full-page paging  "
        print(f"  {label}: {format_bytes(stats.total_bytes - before)} "
              f"moved during the GET phase")
    print("-> the allocator guide ships only live chunks (<=3 segments).")


def main() -> None:
    throughput_section()
    guided_paging_section()


if __name__ == "__main__":
    main()
