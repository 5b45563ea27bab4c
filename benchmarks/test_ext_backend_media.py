"""Extension: DiLOS vs Fastswap across backing media (§5.1 discussion).

The paper argues its design "can improve disk-based swapping performance
also", but that on slow devices "the I/O will be the dominant overhead
hiding performance improvements", while "modern NVMe drives provide enough
performance" for the design to stay valid. We sweep identical sequential
reads over four device profiles — only the device constants change, every
kernel-software cost stays fixed — and check exactly that story: DiLOS'
relative advantage is largest on RDMA, still real on NVMe, and gone on
spinning disk.
"""

from conftest import bench_once, emit

from repro.harness import format_table
from repro.harness.scenarios import seqrw
from repro.net.media import MEDIA_PROFILES

MEDIA = ("rdma-100g", "nvme-flash", "sata-ssd", "hdd")


def measure():
    out = {}
    for medium in MEDIA:
        profile = MEDIA_PROFILES[medium]
        out[medium] = {
            kind: seqrw(kind, 0.125, mib=8, latency=profile()).report.gb_per_s
            for kind in ("fastswap", "dilos-readahead")}
    return out


def test_ext_backing_media_sweep(benchmark):
    results = bench_once(benchmark, measure)
    rows = []
    speedups = {}
    for medium in MEDIA:
        fast = results[medium]["fastswap"]
        dilos = results[medium]["dilos-readahead"]
        speedups[medium] = dilos / fast
        rows.append([medium, fast, dilos, speedups[medium]])
    emit(format_table(
        "Extension: seq read by backing medium (GB/s, 12.5% local)",
        ["medium", "Fastswap", "DiLOS", "DiLOS speedup"], rows))

    # The software-path advantage shrinks monotonically as the device
    # slows down...
    assert speedups["rdma-100g"] >= speedups["nvme-flash"] >= \
        speedups["sata-ssd"] >= speedups["hdd"]
    # ...stays meaningful on NVMe (the paper's "design would be valid for
    # NVMe drives")...
    assert speedups["nvme-flash"] > 1.02
    # ...and is irrelevant once the device costs milliseconds.
    assert speedups["hdd"] < 1.02
    # Absolute throughput also orders by medium, for both systems.
    for kind in ("fastswap", "dilos-readahead"):
        series = [results[m][kind] for m in MEDIA]
        assert series == sorted(series, reverse=True)
