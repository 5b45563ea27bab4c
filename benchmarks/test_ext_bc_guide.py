"""Extension: an app-aware guide for graph traversal.

§4.3's guide API is claimed to generalize beyond Redis; this bench
demonstrates it on betweenness centrality, whose BFS knows its next
adjacency reads a whole frontier in advance. The guide subpage-fetches CSR
offsets and prefetches each upcoming vertex's slice of the edge array —
turning the workload the general-purpose prefetchers are worst at
(Figure 9(b)) into a prefetchable one.
"""

from conftest import bench_once, emit

from repro.harness import format_table
from repro.harness.scenarios import APP_AWARE, gapbs

N, M = 8192, 120_000


def measure():
    out = {}
    tops = set()
    for variant in ("readahead", "trend", "app-aware"):
        kind = APP_AWARE if variant == "app-aware" else f"dilos-{variant}"
        result = gapbs(kind, 0.125, algorithm="bc", nodes=N, edges=M).report
        tops.add(result.top_vertex)
        out[variant] = (result.elapsed_us / 1000.0,
                        result.metrics.value("fault.major"),
                        result.metrics.value("fault.minor"))
    assert len(tops) == 1, "guide changed the algorithm's result"
    return out


def test_ext_bc_frontier_guide(benchmark):
    results = bench_once(benchmark, measure)
    emit(format_table(
        "Extension: BC with an app-aware frontier guide (12.5% local)",
        ["prefetcher", "time (ms)", "major", "minor"],
        [[name, *vals] for name, vals in results.items()]))

    base_time = results["readahead"][0]
    guided_time = results["app-aware"][0]
    # General-purpose prefetchers cannot predict frontier-order access
    # (readahead ~= trend), but the guide can: >=25% faster.
    assert abs(results["trend"][0] - base_time) < 0.35 * base_time
    assert guided_time < 0.75 * base_time
    # Mechanism check: majors converted into prefetch hits/waits.
    assert results["app-aware"][1] < 0.8 * results["readahead"][1]
