"""Tests for the deterministic multi-tenant scheduler (repro.sim.tenancy)."""

import pytest

from repro.common.units import KIB, MIB, PAGE_SIZE
from repro.core.spec import SystemSpec
from repro.harness.scenarios import (
    SCENARIOS,
    kmeans_tenant,
    preset,
    redis_get_tenant,
    seqread_tenant,
)
from repro.mem.pool import PooledMemory
from repro.mem.remote import MemoryNode
from repro.sim.tenancy import ComputeCluster


def touch_tenant(pages=64, passes=2):
    """A minimal workload: touch ``pages`` pages, ``passes`` times."""
    def factory(system):
        def gen():
            region = system.mmap(pages * PAGE_SIZE, name="touch")
            for _ in range(passes):
                for i in range(pages):
                    system.memory.write(region.base + i * PAGE_SIZE, b"t")
                    yield "touch"
        return gen()
    return factory


def spec(kind="dilos-readahead", local=256 * KIB):
    return SystemSpec(kind=kind, local_mem_bytes=local)


class TestScheduling:
    def test_round_robin_interleaves_on_one_clock(self):
        cluster = ComputeCluster(backend="sharded:2",
                                 remote_mem_bytes=16 * MIB, quantum_us=20.0)
        a = cluster.add_tenant("alpha", spec(), touch_tenant())
        b = cluster.add_tenant("beta", spec(), touch_tenant())
        cluster.run()
        assert a.done and b.done
        assert a.system.clock is b.system.clock is cluster.clock
        # Both made progress in multiple slices — real interleaving, not
        # run-to-completion.
        assert a.quanta > 1 and b.quanta > 1
        assert a.finish_us is not None and b.finish_us is not None

    def test_tenants_share_one_backend(self):
        cluster = ComputeCluster(backend="sharded:2",
                                 remote_mem_bytes=16 * MIB, quantum_us=20.0)
        a = cluster.add_tenant("alpha", spec(local=192 * KIB),
                               touch_tenant(pages=128))
        b = cluster.add_tenant("beta", spec(local=192 * KIB),
                               touch_tenant(pages=128))
        cluster.run()
        assert a.system.node is cluster.backend
        assert b.system.node is cluster.backend
        used = cluster.backend.total_slots - cluster.backend.free_slots
        assert used > 0  # evictions from both tenants landed in the pool

    def test_max_quanta_bounds_run(self):
        cluster = ComputeCluster(backend="node", remote_mem_bytes=16 * MIB,
                                 quantum_us=5.0)
        cluster.add_tenant("alpha", spec(), touch_tenant(passes=50))
        snap = cluster.run(max_quanta=3)
        assert snap.value("cluster.quanta") == 3
        assert not cluster.tenants[0].done

    def test_run_without_tenants_raises(self):
        with pytest.raises(RuntimeError, match="no tenants"):
            ComputeCluster(remote_mem_bytes=16 * MIB).run()

    def test_zero_cost_workload_trips_safety_valve(self):
        def spin(system):
            def gen():
                while True:
                    yield "noop"  # never advances the clock
            return gen()

        cluster = ComputeCluster(backend="node", remote_mem_bytes=16 * MIB,
                                 quantum_us=10.0, max_slice_ops=100)
        cluster.add_tenant("spinner", spec(), spin)
        with pytest.raises(RuntimeError, match="not advancing the clock"):
            cluster.run()


class TestTenantValidation:
    def test_bad_names_rejected(self):
        cluster = ComputeCluster(remote_mem_bytes=16 * MIB)
        for bad in ("Alpha", "a-b", "9lives", "a.b", ""):
            with pytest.raises(ValueError, match="tenant name"):
                cluster.add_tenant(bad, spec(), touch_tenant())

    def test_duplicate_name_rejected(self):
        cluster = ComputeCluster(remote_mem_bytes=16 * MIB)
        cluster.add_tenant("alpha", spec(), touch_tenant())
        with pytest.raises(ValueError, match="duplicate"):
            cluster.add_tenant("alpha", spec(), touch_tenant())

    def test_aifm_cannot_share_slot_backend(self):
        cluster = ComputeCluster(remote_mem_bytes=16 * MIB)
        with pytest.raises(ValueError, match="AIFM"):
            cluster.add_tenant("aifm", spec(kind="aifm"), touch_tenant())

    def test_raw_pool_is_not_a_tenant_backend(self):
        """A kernel reaches pooled memory only through a PoolClient: a
        tenant bound to the raw pool fails the backend surface check at
        boot, so no tenant runs without the ownership check."""
        pool = PooledMemory([MemoryNode(4 * MIB) for _ in range(2)])
        cluster = ComputeCluster(backend=pool, remote_mem_bytes=8 * MIB)
        with pytest.raises(TypeError, match="alloc_slot"):
            cluster.add_tenant("alpha", spec(), touch_tenant())
        assert cluster.tenants == []

    def test_tenant_lookup(self):
        cluster = ComputeCluster(remote_mem_bytes=16 * MIB)
        t = cluster.add_tenant("alpha", spec(), touch_tenant())
        assert cluster.tenant("alpha") is t
        with pytest.raises(KeyError, match="alpha"):
            cluster.tenant("missing")


class TestMergedMetrics:
    def test_per_tenant_namespacing(self):
        cluster = ComputeCluster(backend="sharded:2",
                                 remote_mem_bytes=16 * MIB, quantum_us=20.0)
        cluster.add_tenant("alpha", spec(local=192 * KIB),
                           touch_tenant(pages=128))
        cluster.add_tenant("beta", spec(local=192 * KIB), touch_tenant())
        snap = cluster.run()
        assert snap.value("tenant.alpha.fault.major") > 0
        assert snap.value("tenant.alpha.net.bytes_written") > 0
        assert snap.value("tenant.alpha.ops") == 256
        assert snap.value("tenant.beta.ops") == 128
        assert snap.value("tenant.alpha.run_us") > \
            snap.value("tenant.beta.run_us")

    def test_aggregate_counters(self):
        cluster = ComputeCluster(backend="sharded:2",
                                 remote_mem_bytes=16 * MIB, quantum_us=20.0)
        cluster.add_tenant("alpha", spec(), touch_tenant())
        cluster.add_tenant("beta", spec(), touch_tenant())
        snap = cluster.run()
        assert snap.value("cluster.ops") == 256
        assert snap.value("cluster.tenants_finished") == 2
        assert snap.value("backend.total_slots") > 0
        assert 0.5 <= snap.value("cluster.fairness_jain") <= 1.0
        assert snap.extra["tenants"] == ["alpha", "beta"]

    def test_symmetric_tenants_are_fair(self):
        cluster = ComputeCluster(backend="sharded:2",
                                 remote_mem_bytes=16 * MIB, quantum_us=10.0)
        cluster.add_tenant("alpha", spec(), touch_tenant(passes=4))
        cluster.add_tenant("beta", spec(), touch_tenant(passes=4))
        snap = cluster.run()
        assert snap.value("cluster.fairness_jain") == pytest.approx(1.0,
                                                                    abs=0.05)


class TestScenarioPresets:
    def test_presets_listed(self):
        assert SCENARIOS["kmeans+redis"].command == "tenants"
        for scenario in SCENARIOS.values():
            assert scenario.description and callable(scenario.builder)

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError, match="unknown tenants preset"):
            preset("tenants", "nope")
        with pytest.raises(ValueError, match="unknown tenants preset"):
            preset("tenants", "flash_crowd")  # a serve preset

    def test_kmeans_redis_two_tenant_determinism(self):
        """The acceptance scenario: kmeans + redis on shared sharded:2 is
        deterministic (same seed => same merged digest) and reports
        per-tenant fault/prefetch/net metrics plus aggregate counters."""
        snap = preset("tenants", "kmeans+redis").build().report
        for tenant in ("kmeans", "redis"):
            assert snap.value(f"tenant.{tenant}.fault.major") > 0
            assert snap.value(f"tenant.{tenant}.prefetch.issued") > 0
            assert snap.value(f"tenant.{tenant}.net.bytes_read") > 0
        assert snap.value("cluster.quanta") > 2  # genuinely interleaved
        assert snap.value("backend.free_slots") < \
            snap.value("backend.total_slots")
        second = preset("tenants", "kmeans+redis").build().report
        assert second.digest() == snap.digest()

    def test_scenario_overrides(self):
        cluster = preset("tenants", "stream-duo").build(
            backend="sharded:2", quantum_us=50.0, kind="fastswap",
            max_quanta=1).target
        assert cluster.backend_label == "sharded:2"
        assert cluster.quantum_us == 50.0
        assert cluster.tenants[0].spec.kind == "fastswap"

    @pytest.mark.parametrize("workload_factory", [
        kmeans_tenant(n_points=2048), redis_get_tenant(n_keys=50,
                                                       n_queries=100),
        seqread_tenant(nbytes=256 * KIB, passes=1)],
        ids=["kmeans", "redis", "seqread"])
    def test_each_workload_runs_solo(self, workload_factory):
        cluster = ComputeCluster(backend="node", remote_mem_bytes=32 * MIB,
                                 quantum_us=100.0)
        tenant = cluster.add_tenant("solo", spec(local=1 * MIB),
                                    workload_factory)
        cluster.run()
        assert tenant.done and tenant.ops > 0
