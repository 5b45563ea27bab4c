"""Unit tests for the RDMA fabric model: latency curve, QP serialization,
scatter-gather, TCP emulation, and wire accounting."""

import pytest

from repro.common.clock import Clock
from repro.common.units import KIB
from repro.mem.remote import MemoryNode
from repro.net.latency import LatencyModel, cycles_to_us
from repro.net.qp import NetStats, QueuePair


@pytest.fixture()
def fabric():
    clock = Clock()
    model = LatencyModel()
    node = MemoryNode(capacity_bytes=1024 * KIB)
    stats = NetStats()
    qp = QueuePair("test", clock, model, node, stats)
    return clock, model, node, stats, qp


class TestLatencyModel:
    def test_figure2_shape(self):
        """A 4 KiB read adds only ~0.6 us over a 128 B read (Figure 2)."""
        model = LatencyModel()
        small = model.rdma_read_latency(128)
        page = model.rdma_read_latency(4096)
        assert 0.4 < page - small < 0.8
        assert 1.0 < small < 2.5
        assert page < 2.5

    def test_monotone_in_size(self):
        model = LatencyModel()
        sizes = [64, 128, 512, 1024, 4096, 16384]
        lats = [model.rdma_read_latency(s) for s in sizes]
        assert lats == sorted(lats)

    def test_write_cheaper_than_read(self):
        model = LatencyModel()
        assert model.rdma_write_latency(4096) < model.rdma_read_latency(4096)

    def test_sg_overlong_penalty(self):
        """Vectors past length three slow down sharply (§6.3)."""
        model = LatencyModel()
        step3 = model.sg_overhead(3) - model.sg_overhead(2)
        step5 = model.sg_overhead(5) - model.sg_overhead(4)
        assert step5 > step3

    def test_cycles(self):
        assert cycles_to_us(2300) == pytest.approx(1.0)


class TestQueuePair:
    def test_single_read_latency(self, fabric):
        clock, model, node, stats, qp = fabric
        completion = qp.post_read(0, 4096)
        expected = model.rdma_post_overhead + model.rdma_read_latency(4096)
        assert completion.time == pytest.approx(expected)

    def test_read_returns_remote_data(self, fabric):
        clock, model, node, stats, qp = fabric
        node.write_bytes(100, b"hello")
        completion = qp.wait(qp.post_read(100, 5))
        assert completion.data == b"hello"

    def test_write_lands_remotely(self, fabric):
        clock, model, node, stats, qp = fabric
        qp.wait(qp.post_write(64, b"abc"))
        assert node.read_bytes(64, 3) == b"abc"

    def test_pipelining_beats_serial_latency(self, fabric):
        """Back-to-back reads are spaced by wire time, not full latency."""
        clock, model, node, stats, qp = fabric
        completions = [qp.post_read(i * 4096, 4096) for i in range(8)]
        total = completions[-1].time
        serial = 8 * (model.rdma_post_overhead + model.rdma_read_latency(4096))
        assert total < serial * 0.6

    def test_head_of_line_blocking(self, fabric):
        """A small read behind a huge transfer waits for its wire time."""
        clock, model, node, stats, qp = fabric
        qp.post_read(0, 512 * KIB)
        blocked = qp.post_read(0, 128)
        alone = model.rdma_post_overhead * 2 + model.rdma_read_latency(128)
        assert blocked.time > alone + 50.0

    def test_separate_qps_do_not_block(self, fabric):
        clock, model, node, stats, qp = fabric
        other = QueuePair("other", clock, model, node, stats)
        qp.post_read(0, 512 * KIB)
        quick = other.post_read(0, 128)
        assert quick.time < 3.0

    def test_completion_callback_fires_once_at_time(self, fabric):
        clock, model, node, stats, qp = fabric
        seen = []
        completion = qp.post_read(0, 4096, on_complete=lambda c: seen.append(clock.now))
        clock.advance_to(completion.time - 0.01)
        assert seen == []
        clock.advance(0.02)
        assert seen == [pytest.approx(completion.time)]

    def test_posting_charges_cpu(self, fabric):
        clock, model, node, stats, qp = fabric
        qp.post_read(0, 64)
        assert clock.now == pytest.approx(model.rdma_post_overhead)


class TestScatterGather:
    def test_sg_read_concatenates(self, fabric):
        clock, model, node, stats, qp = fabric
        node.write_bytes(0, b"AA")
        node.write_bytes(10, b"BBB")
        completion = qp.wait(qp.post_read_sg([(0, 2), (10, 3)]))
        assert completion.data == b"AABBB"

    def test_sg_write_scatters(self, fabric):
        clock, model, node, stats, qp = fabric
        qp.wait(qp.post_write_sg([(0, b"xy"), (100, b"z")]))
        assert node.read_bytes(0, 2) == b"xy"
        assert node.read_bytes(100, 1) == b"z"

    def test_sg_cheaper_than_full_page_when_sparse(self, fabric):
        """Fetching 3 small live ranges beats fetching the whole page."""
        clock, model, node, stats, qp = fabric
        sparse = qp.post_read_sg([(0, 256), (1024, 256), (2048, 256)])
        t_sparse = sparse.time - clock.now
        clock2 = Clock()
        qp2 = QueuePair("q2", clock2, model, node, NetStats())
        full = qp2.post_read(0, 4096)
        assert t_sparse < full.time

    def test_empty_sg_rejected(self, fabric):
        _, _, _, _, qp = fabric
        with pytest.raises(ValueError):
            qp.post_read_sg([])


class TestNetStats:
    def test_accounting(self, fabric):
        clock, model, node, stats, qp = fabric
        qp.post_read(0, 4096)
        qp.post_write(0, b"x" * 100)
        assert stats.bytes_read == 4096
        assert stats.bytes_written == 100
        assert stats.ops_read == 1
        assert stats.ops_write == 1
        assert stats.total_bytes == 4196


class TestTcpEmulation:
    def test_extra_completion_delay(self):
        clock = Clock()
        model = LatencyModel()
        node = MemoryNode(capacity_bytes=64 * KIB)
        rdma = QueuePair("rdma", clock, model, node, NetStats())
        tcp = QueuePair("tcp", clock, model, node, NetStats(),
                        extra_completion_delay=model.tcp_extra)
        t_rdma = rdma.post_read(0, 4096).time
        t_tcp = tcp.post_read(0, 4096).time
        # 14,000 cycles at 2.3 GHz, minus the rdma QP's post already on the clock.
        assert t_tcp - t_rdma == pytest.approx(
            model.tcp_extra + model.rdma_post_overhead)
