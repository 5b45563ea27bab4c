"""Ablation: unified page table vs swap-cache indirection.

The paper's first design claim (§4.1/§6): mapping fetched and prefetched
pages directly into the page table removes the minor-fault storm that the
Linux swap cache imposes. This ablation re-introduces a swap cache inside
DiLOS (prefetched pages park unmapped; first access pays a minor fault to
map them) and measures what the unified page table buys.
"""

from conftest import bench_once, emit

from repro.harness import format_table
from repro.harness.scenarios import seqrw


def run(swap_cache_mode: bool):
    result = seqrw("dilos-readahead", 0.125, mib=16,
                   swap_cache_mode=swap_cache_mode).report
    return result.gb_per_s, result.metrics


def measure():
    return {"unified": run(False), "swap-cache": run(True)}


def test_ablation_swap_cache(benchmark):
    results = bench_once(benchmark, measure)
    rows = []
    for name, (gbps, metrics) in results.items():
        rows.append([name, gbps, metrics.value("fault.major"),
                     metrics.value("fault.minor")])
    emit(format_table(
        "Ablation: unified page table vs swap cache (seq read, 12.5%)",
        ["design", "GB/s", "major", "minor"], rows))

    unified_gbps, unified_metrics = results["unified"]
    cached_gbps, cached_metrics = results["swap-cache"]
    # The indirection converts prefetch hits into minor faults...
    assert cached_metrics.value("fault.minor") > 2 * unified_metrics.value("fault.minor")
    # ...and costs real throughput.
    assert unified_gbps > 1.15 * cached_gbps
