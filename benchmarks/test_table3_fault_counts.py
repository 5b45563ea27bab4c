"""Table 3: page-fault counts during sequential read, all four systems.

Paper (20 GB read): Fastswap 655,737 major + 4,587,164 minor; DiLOS
no-prefetch 5,242,880 major (every page, no minor); DiLOS readahead /
trend match Fastswap's major count but incur ~25% fewer minors, because
prefetched pages are mapped directly into the unified page table instead
of parking in a swap cache.
"""

from conftest import bench_once, emit

from repro.common.units import MIB, PAGE_SIZE
from repro.harness import format_table
from repro.harness.scenarios import seqrw

WORKING_SET = 16 * MIB
SYSTEMS = ("fastswap", "dilos-none", "dilos-readahead", "dilos-trend")


def measure():
    counts = {}
    for kind in SYSTEMS:
        metrics = seqrw(kind, 0.125, mib=WORKING_SET // MIB).report.metrics
        counts[kind] = (metrics.value("fault.major"), metrics.value("fault.minor"))
    return counts


def test_table3_fault_counts(benchmark):
    counts = bench_once(benchmark, measure)
    pages = WORKING_SET // PAGE_SIZE
    emit(format_table(
        "Table 3: page faults during sequential read (12.5% local)",
        ["system", "major", "minor", "total"],
        [[k, counts[k][0], counts[k][1], sum(counts[k])] for k in SYSTEMS]))

    fastswap_major, fastswap_minor = counts["fastswap"]
    # DiLOS without prefetching majors on essentially every cold page and
    # has no minor faults at all (nothing is ever half-arrived).
    none_major, none_minor = counts["dilos-none"]
    assert none_minor == 0
    assert none_major > 0.75 * pages
    # With prefetching, DiLOS' major count lands near Fastswap's (both are
    # one major per readahead window).
    for kind in ("dilos-readahead", "dilos-trend"):
        major, minor = counts[kind]
        assert 0.5 * fastswap_major < major < 2.0 * fastswap_major
        # The unified page table eliminates swap-cache minors; what's left
        # (waits on in-flight pages) is well below Fastswap's minor count.
        assert minor < 0.75 * fastswap_minor
        assert major + minor < fastswap_major + fastswap_minor
