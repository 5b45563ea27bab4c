"""Tests for the rack-scale cluster layer (repro.sim.rack)."""

import pytest

from repro.common.units import KIB, MIB
from repro.core.spec import SystemSpec
from repro.mem.pool import PoolClient
from repro.net.topology import FabricPort
from repro.sim.rack import (
    DEFAULT_RACK_SERVE,
    RackCluster,
    make_rack,
    run_rack_cell,
    sweep_rack,
)

SMALL_RACK = "rack:compute=4,mem=4,link=100,oversub=1"
SMALL_SERVE = ("poisson:rate=400k,clients=1m,slo=2ms,requests=200,"
               "seed=29,balance=round_robin")


def small_spec(kind="dilos-readahead"):
    return SystemSpec(kind=kind, local_mem_bytes=192 * KIB,
                      remote_mem_bytes=16 * MIB)


def small_rack(tenants=4, placement="locality", oversub=1, serve=SMALL_SERVE):
    topo = f"rack:compute=4,mem=4,link=100,oversub={oversub}"
    return make_rack(tenants=tenants, topology=topo, placement=placement,
                     serve=serve, n_keys=16, remote_mem_bytes=16 * MIB)


def small_cell(**over):
    cell = {"placement": "locality", "oversub": 1.0, "tenants": 4,
            "serve": SMALL_SERVE, "n_keys": 16}
    cell.update(over)
    return cell


class TestRackCluster:
    def test_rejects_flat_topology(self):
        with pytest.raises(ValueError, match="rack topology"):
            RackCluster(topology="flat")

    def test_enrollment_binds_pool_and_port(self):
        cluster = RackCluster(topology=SMALL_RACK,
                              remote_mem_bytes=16 * MIB)
        tenants = [cluster.add_tenant(f"t{i}", small_spec(),
                                      lambda sys_: iter(()))
                   for i in range(6)]
        # Round-robin striping wraps past the 4 compute nodes.
        assert [t.extra["compute_id"] for t in tenants] == [0, 1, 2, 3,
                                                            0, 1]
        for i, tenant in enumerate(tenants):
            cid = i % 4
            client = tenant.spec.backend
            assert isinstance(client, PoolClient)
            assert client.home == cluster.topology.home(cid)
            port = tenant.spec.topology
            assert isinstance(port, FabricPort)
            assert port.compute_id == cid

    def test_explicit_compute_id(self):
        cluster = RackCluster(topology=SMALL_RACK,
                              remote_mem_bytes=16 * MIB)
        tenant = cluster.add_tenant("t0", small_spec(),
                                    lambda sys_: iter(()), compute_id=3)
        assert tenant.extra["compute_id"] == 3
        with pytest.raises(ValueError, match="no compute node"):
            cluster.add_tenant("t1", small_spec(), lambda sys_: iter(()),
                               compute_id=4)

    def test_rejects_aifm_tenants(self):
        cluster = RackCluster(topology=SMALL_RACK,
                              remote_mem_bytes=16 * MIB)
        with pytest.raises(ValueError, match="AIFM"):
            cluster.add_tenant("t0", small_spec(kind="aifm"),
                               lambda sys_: iter(()))

    def test_backend_label_names_pool(self):
        cluster = RackCluster(topology=SMALL_RACK, placement="pack",
                              remote_mem_bytes=16 * MIB)
        assert cluster.backend_label == "pool:4/pack"


class TestRackMetrics:
    def test_snapshot_carries_topo_and_pool_families(self):
        cluster = small_rack()
        cluster.serve()
        snap = cluster.metrics()
        for name in ("topo.bytes", "topo.queue_us", "topo.trunk_crossings",
                     "pool.alloc", "pool.spills", "pool.stranded_slots",
                     "pool.frag_imbalance"):
            assert name in snap.counters, name
        assert snap.extra["topology"] == SMALL_RACK
        assert snap.extra["placement"] == "locality"
        assert snap.value("topo.bytes") > 0

    def test_locality_avoids_trunk_load_crosses_it(self):
        locality = small_rack(placement="locality")
        locality.serve()
        load = small_rack(placement="load")
        load.serve()
        assert locality.metrics().value("topo.trunk_crossings") == 0
        assert load.metrics().value("topo.trunk_crossings") > 0

    def test_uneven_striping_strands_under_locality(self):
        # 6 tenants over 4 compute nodes double up homes 0 and 1, so
        # locality packs those nodes while 2 and 3 keep free slots.
        locality = small_rack(tenants=6, placement="locality")
        load = small_rack(tenants=6, placement="load")
        assert locality.pool.stranded_slots > 0
        # Load balancing leaves at most a rounding remainder (< one
        # slot per node) stranded.
        assert load.pool.stranded_slots < len(load.pool.nodes)
        assert load.pool.stranded_slots < locality.pool.stranded_slots

    def test_link_report_shape(self):
        cluster = small_rack()
        cluster.serve()
        report = cluster.link_report()
        assert "trunk" in report
        assert {"bytes", "queue_us", "util"} <= set(report["trunk"])


class TestServeRerun:
    def test_second_serve_does_not_double_count(self):
        """Regression: registry instruments are shared by name, so a
        second ``serve()`` on the same cluster used to accumulate on top
        of the first run's counts."""
        cluster = small_rack(tenants=2)
        first = cluster.serve()
        second = cluster.serve()
        offered = first.snapshot.value("serve.offered")
        assert offered == 200
        assert second.snapshot.value("serve.offered") == offered
        assert second.snapshot.value("serve.completed") == \
            first.snapshot.value("serve.completed")


class TestSweep:
    def test_cell_is_deterministic(self):
        cell = small_cell(oversub=4.0)
        a = run_rack_cell(cell)
        b = run_rack_cell(cell)
        assert a == b
        assert a["trace_digest"] == b["trace_digest"]
        assert a["metrics_digest"] == b["metrics_digest"]

    def test_parallel_matches_serial(self):
        kwargs = dict(tenants=4, serve=SMALL_SERVE, n_keys=16)
        serial = sweep_rack(["locality", "load"], [4.0], jobs=1, **kwargs)
        fanned = sweep_rack(["locality", "load"], [4.0], jobs=2, **kwargs)
        assert serial == fanned
        assert [r["placement"] for r in serial] == ["locality", "load"]

    def test_grid_order(self):
        rows = sweep_rack(["locality", "load"], [1.0, 4.0], jobs=1,
                          tenants=2, serve=SMALL_SERVE, n_keys=16)
        assert [(r["placement"], r["oversub"]) for r in rows] == [
            ("locality", 1.0), ("locality", 4.0),
            ("load", 1.0), ("load", 4.0)]

    @pytest.mark.slow
    def test_oversubscribed_trunk_queueing_reaches_load_p99(self):
        # 6 tenants double up two homes; at 600 requests the load
        # policy's trunk crossings queue behind a 4:1 ToR, and that
        # queueing lands in its p99 while locality never crosses.
        serve = SMALL_SERVE.replace("requests=200", "requests=600")
        locality, load = sweep_rack(["locality", "load"], [4.0], jobs=1,
                                    tenants=6, serve=serve, n_keys=32)
        assert locality["trunk_crossings"] == 0
        assert load["trunk_queue_us"] > 0
        assert load["p99_us"] > locality["p99_us"]

    def test_default_serve_spec_is_heavier(self):
        # Presets must stay aligned: the CLI default drives 2000
        # requests; tests deliberately use a lighter spec.
        assert "requests=2000" in DEFAULT_RACK_SERVE


class TestMakeRack:
    def test_bad_tenant_count(self):
        with pytest.raises(ValueError, match="at least one tenant"):
            make_rack(tenants=0)

    def test_tenants_named_and_homed(self):
        cluster = small_rack(tenants=5)
        names = [t.name for t in cluster.tenants]
        assert names == ["t0", "t1", "t2", "t3", "t4"]
        assert [t.extra["compute_id"] for t in cluster.tenants] == \
            [0, 1, 2, 3, 0]
