"""Table 4: tail latency of GET (mixed) and LRANGE, memory-constrained.

Paper (ms, 2.5 GB local): Fastswap worst everywhere (GET p99 10.0,
LRANGE p99 25.8); DiLOS-no-prefetch cuts both; prefetchers cut GET tails
further (3.0); only the app-aware guide cuts the LRANGE tail (25.8 ->
14.6, 28% below Fastswap and 18% below the other DiLOS variants).
"""

from conftest import bench_once, emit

from repro.harness import format_table
from repro.harness.scenarios import redis

VARIANTS = ("fastswap", "dilos-none", "dilos-readahead", "dilos-trend",
            "dilos-app-aware")
RATIO = 0.125


def measure():
    tails = {}
    for variant in VARIANTS:
        get_stats = redis(variant, RATIO, n_keys=220, n_queries=900).report
        lr_stats = redis(variant, RATIO, n_keys=400, n_queries=900,
                         lrange=True).report
        tails[variant] = (get_stats.latencies.pct(99),
                          get_stats.latencies.pct(99.9),
                          lr_stats.latencies.pct(99),
                          lr_stats.latencies.pct(99.9))
    return tails


def test_table4_tail_latency(benchmark):
    tails = bench_once(benchmark, measure)
    emit(format_table(
        "Table 4: tail latency, 12.5% local (us)",
        ["system", "GET p99", "GET p99.9", "LRANGE p99", "LRANGE p99.9"],
        [[v, *tails[v]] for v in VARIANTS]))

    fast = tails["fastswap"]
    none = tails["dilos-none"]
    ra = tails["dilos-readahead"]
    aware = tails["dilos-app-aware"]
    # Fastswap has the worst tails across the board.
    for variant in VARIANTS[1:]:
        assert tails[variant][0] < fast[0], variant  # GET p99
        assert tails[variant][2] < fast[2], variant  # LRANGE p99
    # Prefetchers cut the GET tail below no-prefetch (paper: 6.2 -> 3.0).
    assert ra[0] < none[0]
    # Only the app-aware guide cuts the LRANGE tail below the
    # general-purpose prefetchers (paper: 18.0 -> 14.6).
    assert aware[2] < 0.95 * ra[2]
    assert aware[2] < 0.80 * fast[2]
