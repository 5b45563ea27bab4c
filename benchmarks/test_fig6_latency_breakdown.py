"""Figure 6: fault-handler latency breakdown, DiLOS vs Fastswap.

Paper: DiLOS completely hides reclamation, nearly eliminates page
allocation, and cuts total handling latency by ~49% versus Fastswap
(sequential read, prefetch off for both).
"""

from conftest import bench_once, emit

from repro.harness import format_table
from repro.harness.scenarios import seqrw


def measure():
    return {kind: seqrw(kind, 0.125, mib=12).target.kernel.breakdown.averages()
            for kind in ("fastswap", "dilos-none")}


COMPONENTS = ("exception", "software", "fetch", "reclaim")


def test_fig6_latency_breakdown(benchmark):
    breakdowns = bench_once(benchmark, measure)
    fastswap = breakdowns["fastswap"]
    dilos = breakdowns["dilos-none"]
    rows = [[name, fastswap.get(name, 0.0), dilos.get(name, 0.0)]
            for name in COMPONENTS]
    rows.append(["TOTAL", sum(fastswap.values()), sum(dilos.values())])
    emit(format_table(
        "Figure 6: fault-handler breakdown, sequential read (us/fault)",
        ["component", "Fastswap", "DiLOS"], rows))

    total_fastswap = sum(fastswap.values())
    total_dilos = sum(dilos.values())
    # DiLOS completely hides reclamation (paper: no reclaim bar at all).
    assert dilos["reclaim"] == 0.0
    assert fastswap["reclaim"] > 0.0
    # DiLOS' software path is a fraction of the swap subsystem's.
    assert dilos["software"] < 0.4 * fastswap["software"]
    # Both pay the same hardware exception cost.
    assert abs(dilos["exception"] - fastswap["exception"]) < 1e-6
    # Total reduction in the 35-65% band around the paper's 49%.
    reduction = 1.0 - total_dilos / total_fastswap
    assert 0.25 < reduction < 0.70
