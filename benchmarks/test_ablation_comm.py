"""Ablation: shared-nothing communication vs one shared queue pair.

§4.5: per-module QPs keep the fault handler's fetch from queueing behind
prefetch batches and cleaner write-backs. This ablation funnels every
module through a single QP and measures the head-of-line blocking on a
write-heavy sequential pass (maximal cleaner traffic + prefetch traffic).
"""

from conftest import bench_once, emit

from repro.harness import format_table
from repro.harness.scenarios import seqrw


def run(shared: bool):
    cell = seqrw("dilos-readahead", 0.125, mib=16, mode="write",
                 shared_single_qp=shared)
    return cell.report.gb_per_s, cell.target.kernel.comm.queue_count


def measure():
    return {"shared-nothing": run(False), "single shared QP": run(True)}


def test_ablation_shared_nothing_comm(benchmark):
    results = bench_once(benchmark, measure)
    emit(format_table(
        "Ablation: per-module QPs vs one shared QP (seq write, 12.5%)",
        ["design", "GB/s", "QPs"],
        [[name, gbps, queues] for name, (gbps, queues) in results.items()]))

    split_gbps, split_queues = results["shared-nothing"]
    shared_gbps, shared_queues = results["single shared QP"]
    assert split_queues > 1
    assert shared_queues == 1
    # Head-of-line blocking costs throughput under combined fault +
    # prefetch + write-back traffic.
    assert split_gbps > 1.10 * shared_gbps
