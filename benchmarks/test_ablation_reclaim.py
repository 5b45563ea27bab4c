"""Ablation: eager background reclamation vs direct reclaim on the fault
path.

§4.4: DiLOS' page manager keeps free frames between watermarks so the
fault handler only ever pops a free list. This ablation disables the
background thread, making the fault path reclaim inline exactly like the
kernel-paging baselines, and measures both the latency-breakdown change
and the end-to-end cost.
"""

from conftest import bench_once, emit

from repro.harness import format_table
from repro.harness.scenarios import kmeans


def run(direct_only: bool):
    cell = kmeans("dilos-none", 0.125, n_points=1 << 14, clusters=10,
                  iterations=3, direct_reclaim_only=direct_only)
    result = cell.report
    breakdown = cell.target.kernel.breakdown.averages()
    return (result.elapsed_us / 1000.0, breakdown.get("reclaim", 0.0),
            result.metrics.value("reclaim.direct"))


def measure():
    return {"background (DiLOS)": run(False), "direct-reclaim": run(True)}


def test_ablation_background_reclaim(benchmark):
    results = bench_once(benchmark, measure)
    emit(format_table(
        "Ablation: background vs fault-path reclamation (k-means, 12.5%)",
        ["design", "time (ms)", "reclaim us/fault", "direct reclaims"],
        [[name, *vals] for name, vals in results.items()]))

    bg_time, bg_reclaim, bg_directs = results["background (DiLOS)"]
    dr_time, dr_reclaim, dr_directs = results["direct-reclaim"]
    # The DiLOS design keeps reclamation entirely off the fault path...
    assert bg_reclaim == 0.0
    assert bg_directs == 0
    # ...while the ablation pays it inline, visibly in the breakdown and
    # in completion time (the Figure 1 -> Figure 6 delta, isolated).
    assert dr_reclaim > 0.0
    assert dr_directs > 0
    assert dr_time > 1.05 * bg_time
