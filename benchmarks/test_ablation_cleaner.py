"""Ablation: how eager must the background page manager be?

§4.4's cleaner/reclaimer "always keeps a few free pages by eagerly
evicting the local cache". This sweep varies the background thread's
wakeup period on a write-heavy pass: wake too rarely and the free list
runs dry, pushing reclamation back onto the fault path (direct reclaims —
the Fastswap failure mode DiLOS exists to avoid).
"""

from conftest import bench_once, emit

from repro.harness import format_table
from repro.harness.scenarios import seqrw

PERIODS_US = (2.5, 5.0, 20.0, 80.0, 320.0)


def measure():
    out = {}
    for period in PERIODS_US:
        result = seqrw("dilos-readahead", 0.125, mib=12, mode="write",
                       cleaner_period_us=period).report
        out[period] = (result.gb_per_s,
                       result.metrics.value("reclaim.direct"),
                       result.metrics.value("reclaim.pages_cleaned"))
    return out


def test_ablation_cleaner_period(benchmark):
    results = bench_once(benchmark, measure)
    emit(format_table(
        "Ablation: background-manager wakeup period (seq write, 12.5%)",
        ["period (us)", "GB/s", "direct reclaims", "pages cleaned"],
        [[period, *results[period]] for period in PERIODS_US]))

    eager_gbps, eager_directs, _ = results[5.0]
    lazy_gbps, lazy_directs, _ = results[320.0]
    # An eager manager keeps the fault path reclaim-free...
    assert eager_directs == 0
    # ...while a lazy one leaks reclamation into the fault path and pays
    # for it in throughput.
    assert lazy_directs > 0
    assert lazy_gbps < 0.9 * eager_gbps
    # Past "eager enough" there is nothing left to win.
    assert results[2.5][0] == max(v[0] for v in results.values()) or \
        results[2.5][0] > 0.9 * eager_gbps
