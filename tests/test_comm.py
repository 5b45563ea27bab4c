"""Unit tests for the shared-nothing communication module (§4.5)."""

import pytest

from repro.common.clock import Clock
from repro.common.units import KIB, MIB
from repro.core.comm import CommModule, MODULES
from repro.mem.remote import MemoryNode
from repro.net.latency import LatencyModel


def make_comm(shared=False, extra=0.0):
    clock = Clock()
    node = MemoryNode(4 * MIB)
    comm = CommModule(clock, LatencyModel(), node,
                      shared_single_qp=shared,
                      extra_completion_delay=extra)
    return clock, node, comm


class TestQueueAssignment:
    def test_one_qp_per_module(self):
        _, _, comm = make_comm()
        qps = [comm.qp(module) for module in MODULES]
        assert len({id(qp) for qp in qps}) == len(MODULES)
        assert comm.queue_count == len(MODULES)
        # The fault plan draws on the QP name: it keeps the core suffix.
        assert [qp.name for qp in qps] == [f"{m}@core0" for m in MODULES]

    def test_qp_is_stable(self):
        _, _, comm = make_comm()
        assert comm.qp("fault") is comm.qp("fault")

    def test_unknown_module_rejected(self):
        _, _, comm = make_comm()
        with pytest.raises(ValueError):
            comm.qp("mystery")

    def test_shared_mode_collapses(self):
        _, _, comm = make_comm(shared=True)
        qps = {id(comm.qp(m)) for m in MODULES}
        assert len(qps) == 1
        assert comm.queue_count == 1


class TestIsolation:
    def test_fault_qp_not_blocked_by_manager_traffic(self):
        clock, _, comm = make_comm()
        comm.qp("manager").post_write(0, b"\x00" * (256 * KIB))
        urgent = comm.qp("fault").post_read(0, 4 * KIB)
        assert urgent.time < 3.0

    def test_shared_mode_exhibits_hol_blocking(self):
        clock, _, comm = make_comm(shared=True)
        comm.qp("manager").post_write(0, b"\x00" * (256 * KIB))
        blocked = comm.qp("fault").post_read(0, 4 * KIB)
        assert blocked.time > 20.0

    def test_stats_aggregate_across_queues(self):
        _, _, comm = make_comm()
        comm.qp("fault").post_read(0, 4096)
        comm.qp("prefetch").post_read(0, 4096)
        assert comm.stats.bytes_read == 8192
        assert comm.stats.ops_read == 2


class TestTcpEmulation:
    def test_extra_delay_applied_to_every_queue(self):
        model = LatencyModel()
        _, _, plain = make_comm()
        _, _, tcp = make_comm(extra=model.tcp_extra)
        fast = plain.qp("fault").post_read(0, 4096).time
        slow = tcp.qp("fault").post_read(0, 4096).time
        assert slow - fast == pytest.approx(model.tcp_extra)
