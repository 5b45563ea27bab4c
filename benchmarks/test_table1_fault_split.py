"""Table 1: major/minor fault split on Fastswap, sequential read.

Paper (20 GB read, 2.5 GB local): 655,737 major (12.5%) vs 4,587,164 minor
(87.5%) — exactly one major per readahead cluster of 8, with every
prefetched page paying a swap-cache minor fault.
"""

from conftest import bench_once, emit

from repro.harness import format_table
from repro.harness.scenarios import seqrw


def measure():
    return seqrw("fastswap", 0.125, mib=16).report.metrics


def test_table1_fault_split(benchmark):
    metrics = bench_once(benchmark, measure)
    major = metrics.value("fault.major")
    minor = metrics.value("fault.minor")
    total = major + minor
    emit(format_table(
        "Table 1: page faults, sequential read on Fastswap (12.5% local)",
        ["kind", "count", "%"],
        [["Major page fault", major, 100.0 * major / total],
         ["Minor page fault", minor, 100.0 * minor / total],
         ["Total", total, 100.0]]))
    # The 12.5%/87.5% split of a window-8 readahead into the swap cache.
    assert 0.08 < major / total < 0.20
    assert minor / total > 0.78
