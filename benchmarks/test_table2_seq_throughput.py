"""Table 2: sequential read/write throughput (GB/s), 12.5% local memory.

Paper (GB/s): Fastswap 0.98 / 0.49; DiLOS no-prefetch 1.24 / 1.14; DiLOS
readahead 3.74 / 3.49; DiLOS trend-based 3.73 / 3.49.

Shape asserted here: DiLOS-no-prefetch beats Fastswap on reads; both DiLOS
prefetchers are ~3x or better over Fastswap; Fastswap's writes collapse to
about half its reads (inline frontswap stores), while DiLOS' writes stay
close to its reads (background cleaning).
"""

from conftest import bench_once, emit

from repro.harness import format_table
from repro.harness.figures import FIGURES, run_figure

SYSTEMS = FIGURES["table2-read"].systems


def measure():
    throughput = {}
    for mode in ("read", "write"):
        for m in run_figure(f"table2-{mode}"):
            throughput[(m.system, mode)] = m.value
    return throughput


def test_table2_sequential_throughput(benchmark):
    tp = bench_once(benchmark, measure)
    emit(format_table(
        "Table 2: sequential throughput, 12.5% local (GB/s)",
        ["system", "read", "write"],
        [[k, tp[(k, "read")], tp[(k, "write")]] for k in SYSTEMS]))

    fastswap_r = tp[("fastswap", "read")]
    fastswap_w = tp[("fastswap", "write")]
    # DiLOS without any prefetcher already beats Fastswap (unified page
    # table + background reclaim alone).
    assert tp[("dilos-none", "read")] > fastswap_r
    assert tp[("dilos-none", "write")] > 1.5 * fastswap_w
    # Prefetchers lift DiLOS ~3x over Fastswap (paper: 3.7-3.8x).
    assert tp[("dilos-readahead", "read")] > 2.5 * fastswap_r
    assert tp[("dilos-trend", "read")] > 2.5 * fastswap_r
    # Prefetching beats no-prefetch by a wide margin (paper: ~3x).
    assert tp[("dilos-readahead", "read")] > 2.0 * tp[("dilos-none", "read")]
    # Fastswap writes collapse to roughly half its reads (paper: 0.49/0.98).
    assert fastswap_w < 0.65 * fastswap_r
    # DiLOS writes stay close to its reads (paper: 3.49/3.74).
    assert tp[("dilos-readahead", "write")] > 0.8 * tp[("dilos-readahead", "read")]
