"""Figure 1: Fastswap's page-fault-handler latency breakdown.

Paper: fetching the remote page is the largest component (~46%); direct
reclamation adds ~29% in the average case and disappears in the
no-reclamation case; the hardware exception + OS handler entry is 0.57 us.
"""

from conftest import bench_once, emit

from repro.common.units import MIB, PAGE_SIZE
from repro.harness import format_table, make_system
from repro.harness.scenarios import seqrw

WORKING_SET = 12 * MIB


def run_average():
    """Sequential read at 12.5% local: reclaim pressure on every fetch."""
    system = seqrw("fastswap", 0.125, mib=WORKING_SET // MIB).target
    return system.kernel.breakdown.averages()


def run_no_reclamation():
    """Plenty of local memory, data starts remote: fetches never reclaim."""
    system = make_system("fastswap", int(WORKING_SET * 2.5))
    region = system.mmap(WORKING_SET, name="data")
    pages = WORKING_SET // PAGE_SIZE
    for i in range(pages):
        system.memory.write(region.base + i * PAGE_SIZE, b"\x11" * 64)
    # Spill: touching a scratch region evicts the data set, then releasing
    # the scratch leaves ample free frames for reclamation-free fetches.
    scratch = system.mmap(2 * WORKING_SET, name="scratch")
    for i in range(2 * pages):
        system.memory.write(scratch.base + i * PAGE_SIZE, b"\x22" * 8)
    system.clock.advance(20_000)
    system.munmap(scratch)
    system.kernel.breakdown.reset()
    for i in range(pages):
        system.memory.read(region.base + i * PAGE_SIZE, 64)
    return system.kernel.breakdown.averages()


def measure():
    return run_average(), run_no_reclamation()


COMPONENTS = ("exception", "software", "fetch", "reclaim")


def test_fig1_fastswap_fault_breakdown(benchmark):
    average, no_reclaim = bench_once(benchmark, measure)
    rows = [[name, average.get(name, 0.0), no_reclaim.get(name, 0.0)]
            for name in COMPONENTS]
    rows.append(["TOTAL", sum(average.values()), sum(no_reclaim.values())])
    emit(format_table(
        "Figure 1: Fastswap fault-handler breakdown (us/fault)",
        ["component", "average", "no reclamation"], rows))

    total_avg = sum(average.values())
    # Fetch is the largest component (paper: 46%).
    assert average["fetch"] == max(average.values())
    assert 0.30 < average["fetch"] / total_avg < 0.70
    # Hardware exception + OS entry = 0.57 us.
    assert abs(average["exception"] - 0.57) < 1e-6
    # Reclamation is significant on average (paper: ~29%)...
    assert average["reclaim"] / total_avg > 0.10
    # ...and absent without memory pressure.
    assert no_reclaim["reclaim"] < 0.05
    assert sum(no_reclaim.values()) < total_avg
