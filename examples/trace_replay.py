#!/usr/bin/env python3
"""Trace-driven kernel comparison.

Records the memory behaviour of one quicksort run — every load/store with
its compute gaps — then replays the identical access sequence on DiLOS
(three prefetchers) and Fastswap. Trace-driven replay removes every
source of variation except the paging subsystem, which is the §3
methodology behind the paper's motivation numbers.

Run:  python examples/trace_replay.py
"""

import numpy as np

from repro.common.units import MIB
from repro.harness import local_bytes_for, make_system
from repro.harness.trace import TraceRecorder
from repro.apps.quicksort import QuicksortWorkload


def main() -> None:
    workload = QuicksortWorkload(count=1 << 15)
    local = local_bytes_for(workload.footprint_bytes, 0.125)

    print("recording a quicksort run (DiLOS, 12.5% local) ...")
    source = make_system("dilos-readahead", local)
    recorder = TraceRecorder(source)
    workload.run(source, verify=True)
    trace = recorder.finish()
    print(f"captured {len(trace):,} accesses, "
          f"{trace.bytes_accessed / MIB:.1f} MiB moved\n")

    print(f"{'kernel':22s} {'replay (ms)':>12s} {'major':>8s} {'minor':>8s}")
    for kind in ("fastswap", "dilos-none", "dilos-readahead",
                 "dilos-stride"):
        system = make_system(kind, local)
        metrics = trace.replay(system)
        print(f"{kind:22s} {metrics.extra['replay_us'] / 1000:>12.2f} "
              f"{metrics.value('fault.major'):>8,} "
              f"{metrics.value('fault.minor'):>8,}")
    print("\n-> identical byte-for-byte access sequence; only the paging")
    print("   subsystem differs, so every gap in the table is paging design:")
    print("   Fastswap's swap-cache software path vs DiLOS' unified page")
    print("   table, and how much of the trace each prefetcher predicts.")


if __name__ == "__main__":
    main()
