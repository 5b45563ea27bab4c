"""Figure 10: Redis request throughput — GET (4 KiB / 64 KiB / mixed) and
LRANGE — across systems and prefetchers.

Paper shapes, memory-constrained (12.5% local):
* DiLOS without any prefetcher already beats Fastswap by 1.37-1.52x;
* general-purpose prefetchers help GET (objects spanning multiple pages
  become predictable; weakest on 4 KiB objects) — up to 2.51x Fastswap;
* on LRANGE (pointer-chasing quicklists) readahead and trend gain nothing
  over no-prefetch;
* the app-aware guide matches the others on GET and beats them by ~62% on
  LRANGE (2.21x Fastswap).
"""

from conftest import bench_once, emit

from repro.harness import format_table
from repro.harness.figures import FIGURES, run_figure

#: Column -> figure id; every panel sweeps the same variants at 12.5%.
PANELS = {"GET 4KB": "fig10a", "GET 64KB": "fig10b", "GET mixed": "fig10c",
          "LRANGE": "fig10d"}
VARIANTS = FIGURES["fig10a"].systems


def measure_all():
    return {label: {m.system: m.value for m in run_figure(name)}
            for label, name in PANELS.items()}


def test_fig10_redis_throughput(benchmark):
    results = bench_once(benchmark, measure_all)
    emit(format_table(
        "Figure 10: Redis throughput, 12.5% local (requests/s)",
        ["system"] + list(results),
        [[v] + [results[w][v] for w in results] for v in VARIANTS]))

    for workload, tp in results.items():
        # DiLOS beats Fastswap in every configuration (paper: all of
        # Figure 10), even without a prefetcher (1.37-1.52x).
        assert tp["dilos-none"] > 1.2 * tp["fastswap"], workload
        for variant in VARIANTS[1:]:
            assert tp[variant] > tp["fastswap"], (workload, variant)

    # GET 64KB: multi-page objects make prefetching effective (paper: up
    # to 63% over no-prefetch).
    assert results["GET 64KB"]["dilos-trend"] > \
        1.2 * results["GET 64KB"]["dilos-none"]
    assert results["GET 64KB"]["dilos-readahead"] > \
        1.2 * results["GET 64KB"]["dilos-none"]
    # GET 4KB: small objects blunt the prefetchers — their relative gain
    # is clearly smaller than on 64 KiB objects, and trend-based (which
    # needs a stride) gains essentially nothing on random 4 KiB keys.
    gain_4k = (results["GET 4KB"]["dilos-readahead"]
               / results["GET 4KB"]["dilos-none"])
    gain_64k = (results["GET 64KB"]["dilos-readahead"]
                / results["GET 64KB"]["dilos-none"])
    assert gain_64k > gain_4k * 1.1
    assert results["GET 4KB"]["dilos-trend"] < \
        1.15 * results["GET 4KB"]["dilos-none"]
    # LRANGE: general-purpose prefetchers gain nothing on pointer chasing...
    for variant in ("dilos-readahead", "dilos-trend"):
        assert results["LRANGE"][variant] < \
            1.10 * results["LRANGE"]["dilos-none"], variant
    # ...but the app-aware guide breaks the pattern (paper: +62%).
    assert results["LRANGE"]["dilos-app-aware"] > \
        1.3 * results["LRANGE"]["dilos-readahead"]
    # And on GET the guide performs on par with the general prefetchers.
    assert results["GET mixed"]["dilos-app-aware"] > \
        0.85 * results["GET mixed"]["dilos-readahead"]
