"""Tests for the rack topology layer (repro.net.topology) and its
integration with the QP wire model and the boot layer."""

import pytest

from repro.common.units import MIB, PAGE_SIZE
from repro.core.spec import SystemSpec
from repro.mem.pool import PooledMemory
from repro.mem.remote import MemoryNode
from repro.net.latency import DEFAULT_LATENCY, LatencyModel
from repro.net.qp import QueuePair
from repro.net.topology import Link, RackTopology


def pool_client():
    """One tenant's view of a two-node, load-placed 16 MiB pool."""
    return PooledMemory([MemoryNode(8 * MIB, name=f"pool{i}")
                         for i in range(2)], policy="load").client("t0")


class TestLink:
    def test_serialization_time(self):
        link = Link("l", gbps=100.0)
        # 100 Gbit/s = 12500 bytes/us -> 4096 B takes 0.32768 us.
        assert link.transmit(0.0, 4096) == pytest.approx(4096 / 12500)

    def test_fifo_queueing(self):
        link = Link("l", gbps=100.0)
        first = link.transmit(0.0, 12500)  # busy until 1.0
        assert first == pytest.approx(1.0)
        # Arriving at 0.25 waits 0.75 for the first transfer to drain.
        second = link.transmit(0.25, 12500)
        assert second == pytest.approx(0.75 + 1.0)
        assert link.queue_us == pytest.approx(0.75)
        assert link.busy_us == pytest.approx(2.0)
        assert link.bytes == 25000
        assert link.transfers == 2

    def test_idle_gap_does_not_queue(self):
        link = Link("l", gbps=100.0)
        link.transmit(0.0, 12500)
        assert link.transmit(5.0, 12500) == pytest.approx(1.0)
        assert link.queue_us == 0.0

    def test_utilization(self):
        link = Link("l", gbps=100.0)
        link.transmit(0.0, 12500)
        assert link.utilization(4.0) == pytest.approx(0.25)
        assert link.utilization(0.0) == 0.0

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            Link("l", gbps=0.0)

    def test_link_per_byte_matches(self):
        assert Link("l", 40.0).per_byte_us == pytest.approx(
            LatencyModel.link_per_byte_us(40.0))
        with pytest.raises(ValueError):
            LatencyModel.link_per_byte_us(0)


class TestRackTopology:
    def test_structure(self):
        topo = RackTopology(compute=4, mem=2, link_gbps=100.0, oversub=4.0)
        assert len(topo.uplinks) == 4
        assert len(topo.downlinks) == 2
        assert len(topo.direct) == 4
        # Trunk: aggregate edge capacity / oversubscription.
        assert topo.trunk.gbps == pytest.approx(100.0 * 4 / 4.0)

    def test_home_is_modular(self):
        topo = RackTopology(compute=4, mem=2)
        assert [topo.home(c) for c in range(4)] == [0, 1, 0, 1]

    def test_home_path_bypasses_tor(self):
        topo = RackTopology(compute=2, mem=2)
        (only,) = topo.path(1, 1)
        assert only is topo.direct[1]

    def test_cross_path_uses_three_links(self):
        topo = RackTopology(compute=2, mem=2)
        links = topo.path(0, 1)
        assert links == (topo.uplinks[0], topo.trunk, topo.downlinks[1])

    def test_path_bounds(self):
        topo = RackTopology(compute=2, mem=2)
        with pytest.raises(ValueError):
            topo.path(2, 0)
        with pytest.raises(ValueError):
            topo.path(0, 2)

    def test_transmit_store_and_forward(self):
        topo = RackTopology(compute=2, mem=2, link_gbps=100.0)
        edge = 4096 / 12500
        trunk = 4096 / 12500 / 2  # trunk is 2x the edge rate at oversub=1
        delay = topo.transmit(0, 1, 0.0, 4096)
        assert delay == pytest.approx(2 * edge + trunk)
        assert topo.trunk.transfers == 1

    def test_oversubscribed_trunk_queues(self):
        topo = RackTopology(compute=4, mem=4, link_gbps=100.0, oversub=4.0)
        flat = RackTopology(compute=4, mem=4, link_gbps=100.0, oversub=1.0)
        for t in (topo, flat):
            for c in range(4):
                t.transmit(c, (c + 1) % 4, 0.0, 65536)
        assert topo.trunk.queue_us > flat.trunk.queue_us

    def test_spec_round_trip(self):
        spec = "rack:compute=4,mem=2,link=40,oversub=4"
        topo = RackTopology.from_spec(spec)
        assert topo.spec() == spec
        again = RackTopology.from_spec(topo.spec())
        assert again.trunk.gbps == topo.trunk.gbps

    def test_from_spec_errors(self):
        with pytest.raises(ValueError, match="unknown topology kind"):
            RackTopology.from_spec("mesh:compute=2")
        with pytest.raises(ValueError, match="unknown topology spec key"):
            RackTopology.from_spec("rack:nodes=4")
        with pytest.raises(ValueError, match="bad topology spec value"):
            RackTopology.from_spec("rack:compute=x")

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            RackTopology(compute=0, mem=2)
        with pytest.raises(ValueError):
            RackTopology(compute=2, mem=2, oversub=0.5)

    def test_metrics_families(self):
        topo = RackTopology(compute=2, mem=2)
        topo.transmit(0, 1, 0.0, 4096)
        snap = topo.metrics()
        assert snap.counters["topo.bytes"] == pytest.approx(3 * 4096)
        assert snap.counters["topo.trunk_crossings"] == 1.0
        assert snap.counters["topo.c0_up.bytes"] == pytest.approx(4096)

    def test_link_report(self):
        topo = RackTopology(compute=2, mem=2)
        topo.transmit(0, 0, 0.0, 12500)
        report = topo.link_report(10.0)
        assert report["c0m0"]["bytes"] == 12500.0
        assert report["c0m0"]["util"] == pytest.approx(0.1)


class TestFabricPort:
    def test_resolver_routes_by_offset(self):
        topo = RackTopology(compute=2, mem=2)
        port = topo.port(0, resolver=lambda off: off % 2)
        port.charge(1, 4096, 0.0)  # node 1: crosses the ToR
        assert topo.trunk.transfers == 1
        port.charge(0, 4096, 0.0)  # node 0 is home: direct link
        assert topo.trunk.transfers == 1

    def test_no_resolver_charges_home(self):
        topo = RackTopology(compute=2, mem=2)
        port = topo.port(1)
        port.charge(12345, 4096, 0.0)
        assert topo.direct[1].transfers == 1
        assert topo.trunk.transfers == 0

    def test_none_offset_charges_home(self):
        topo = RackTopology(compute=2, mem=2)
        port = topo.port(0, resolver=lambda off: 1)
        port.charge(None, 4096, 0.0)
        assert topo.direct[0].transfers == 1

    def test_bad_compute_id(self):
        topo = RackTopology(compute=2, mem=2)
        with pytest.raises(ValueError):
            topo.port(2)


def _qp(fabric=None, capacity=64 * PAGE_SIZE):
    from repro.common.clock import Clock
    from repro.mem.remote import MemoryNode
    from repro.net.qp import NetStats

    return QueuePair("test", Clock(), DEFAULT_LATENCY,
                     MemoryNode(capacity), NetStats(), fabric=fabric)


class TestQpFabricCharging:
    def test_flat_default_identical(self):
        """No fabric attached -> timings identical to the historical
        wire model (the golden-master digests pin this end-to-end)."""
        assert _qp().post_read(0, PAGE_SIZE).time == \
            _qp(fabric=None).post_read(0, PAGE_SIZE).time

    def test_fabric_adds_contention_delay(self):
        topo = RackTopology(compute=1, mem=1, link_gbps=100.0)
        charged = _qp(fabric=topo.port(0))
        assert charged.post_read(0, PAGE_SIZE).time > \
            _qp().post_read(0, PAGE_SIZE).time
        assert topo.direct[0].bytes == PAGE_SIZE

    def test_fabric_routes_by_remote_offset(self):
        topo = RackTopology(compute=2, mem=2)
        node_bytes = 32 * PAGE_SIZE
        port = topo.port(0, resolver=lambda off: off // node_bytes)
        qp = _qp(fabric=port, capacity=2 * node_bytes)
        qp.post_write(node_bytes, b"x" * PAGE_SIZE)
        assert topo.trunk.transfers == 1
        qp.post_read(0, PAGE_SIZE)
        assert topo.trunk.transfers == 1  # home node: direct link


class TestSpecBootTopology:
    def test_default_boot_has_no_fabric(self):
        system = SystemSpec(kind="dilos-readahead",
                            local_mem_bytes=2 * MIB).boot()
        assert system.config.fabric is None

    def test_only_a_bound_port_is_accepted(self):
        """RackCluster binds each tenant's port; a spec string or a bare
        topology is not a second way onto the fabric."""
        for wrong in ("rack:compute=2,mem=2", "flat",
                      RackTopology(compute=2, mem=2)):
            with pytest.raises(TypeError, match="FabricPort"):
                SystemSpec(kind="dilos-readahead", local_mem_bytes=2 * MIB,
                           topology=wrong)

    def test_rack_boot_slower_than_flat(self):
        def run(fabric):
            client = pool_client()
            port = (RackTopology.from_spec(fabric).port(
                0, resolver=client.node_of) if fabric else None)
            system = SystemSpec(kind="dilos-readahead",
                                local_mem_bytes=512 * 1024,
                                remote_mem_bytes=16 * MIB,
                                backend=client, topology=port).boot()
            region = system.mmap(2 * MIB, name="w")
            for i in range(0, 2 * MIB, PAGE_SIZE):
                system.memory.write(region.base + i, b"%08d" % i)
            for i in range(0, 2 * MIB, PAGE_SIZE):
                assert system.memory.read(region.base + i, 8) == b"%08d" % i
            return system.clock.now

        assert run("rack:compute=2,mem=2,oversub=4") > run(None)

    def test_prebound_port_is_kept(self):
        topo = RackTopology(compute=4, mem=2)
        port = topo.port(3)
        spec = SystemSpec(kind="dilos-readahead", local_mem_bytes=2 * MIB,
                          topology=port)
        system = spec.boot()
        assert system.config.fabric is port
