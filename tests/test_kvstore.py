"""The replicated KV service: records, quorum, leases, the audit.

These are the unit-level contracts behind the chaos suite
(``tests/test_kv_chaos.py``) and the ``kv_failover`` golden scenario:
byte-exact record round-trips, write rejection without a quorum, the
split-brain blackout between a primary's death and its lease lapsing,
failover to the lowest-index *clean* member, and the lost-update audit
that the acceptance gate requires to read 0.
"""

import random

import pytest

from repro.apps.api import Request, SERVICES, build_service
from repro.apps.kvstore import (
    DEFAULT_LEASE_US,
    KvStoreService,
    build_kv_service,
)
from repro.common.units import MIB, PAGE_SIZE
from repro.harness import make_system
from repro.mem.repair import RepairManager


def boot(backend="replicated:3", repair=None, **kwargs):
    system = make_system("dilos-stride", local_bytes=1 * MIB,
                         remote_bytes=8 * MIB, backend=backend, **kwargs)
    if repair:
        RepairManager(system.node, system.clock, policy=repair)
    return system


def fresh_service(backend="replicated:3", repair=None, **kwargs):
    system = boot(backend=backend, repair=repair)
    return system, KvStoreService(system, **kwargs)


class TestConstruction:
    def test_requires_a_redundant_backend(self):
        system = make_system("dilos-stride", local_bytes=1 * MIB,
                             remote_bytes=8 * MIB)
        with pytest.raises(ValueError, match="redundant cluster backend"):
            KvStoreService(system)

    def test_sharded_backend_rejected(self):
        system = boot(backend="sharded:2")
        with pytest.raises(ValueError, match="redundant cluster backend"):
            KvStoreService(system)

    def test_lease_must_be_positive(self):
        system = boot()
        with pytest.raises(ValueError, match="lease_us"):
            KvStoreService(system, lease_us=0.0)

    def test_counters_preregistered_and_zero(self):
        system, service = fresh_service()
        counters = service.backend.metrics().counters
        for name in ("kv.gets", "kv.sets", "kv.failovers",
                     "kv.lost_updates", "kv.unavail_rejects"):
            assert counters[name] == 0
        assert service.backend.metrics().counters["kv.primary"] == -1.0

    def test_quorum_sizes(self):
        _, replicated = fresh_service("replicated:3")
        assert replicated.write_quorum == 2
        _, parity = fresh_service("parity:2+1")
        assert parity.write_quorum == 2
        # Parity's candidates are the data members only: the parity
        # member holds XOR blocks, not records, so it can never front.
        assert parity._candidates == [0, 1]

    def test_registered_as_a_service_kind(self):
        assert "kv" in SERVICES


class TestRecordRoundTrip:
    def test_set_then_get_byte_exact(self):
        _, service = fresh_service()
        value = bytes(range(200))
        assert service.handle(Request("set", key=b"a", value=value)).ok
        response = service.handle(Request("get", key=b"a"))
        assert response.ok and response.value == value

    def test_get_missing_key_is_a_miss(self):
        system, service = fresh_service()
        response = service.handle(Request("get", key=b"ghost"))
        assert not response.ok
        assert service.backend.metrics().counters["kv.misses"] == 1

    def test_overwrite_bumps_the_version(self):
        _, service = fresh_service()
        service.handle(Request("set", key=b"a", value=b"one"))
        service.handle(Request("set", key=b"a", value=b"two longer"))
        assert service._versions[b"a"] == 2
        response = service.handle(Request("get", key=b"a"))
        assert response.value == b"two longer"

    def test_delete_tombstones_but_keeps_the_version_chain(self):
        _, service = fresh_service()
        service.handle(Request("set", key=b"a", value=b"one"))
        assert service.handle(Request("del", key=b"a")).value is True
        assert not service.handle(Request("get", key=b"a")).ok
        # A re-set continues the chain past the tombstone, so the audit
        # can never mistake the new record for a regression.
        service.handle(Request("set", key=b"a", value=b"three"))
        assert service._versions[b"a"] == 3
        assert service.handle(Request("get", key=b"a")).value == b"three"

    def test_delete_of_missing_key_reports_false(self):
        _, service = fresh_service()
        assert service.handle(Request("del", key=b"nope")).value is False

    def test_oversized_value_rejected(self):
        _, service = fresh_service()
        response = service.handle(
            Request("set", key=b"big", value=b"x" * PAGE_SIZE))
        assert not response.ok and "record limit" in response.error

    def test_unknown_op_rejected(self):
        _, service = fresh_service()
        assert not service.handle(Request("incr", key=b"a")).ok


class TestQuorum:
    def test_writes_rejected_below_quorum_reads_survive(self):
        system, service = fresh_service()
        service.handle(Request("set", key=b"a", value=b"payload"))
        # Kill two non-primary replicas: one live member < quorum of 2.
        for node in service.backend.member_nodes()[1:]:
            node.fail()
        response = service.handle(Request("set", key=b"a", value=b"new"))
        assert not response.ok and "quorum" in response.error
        assert service.backend.metrics().counters["kv.rejected_writes"] == 1
        assert service.handle(Request("get", key=b"a")).value == b"payload"

    def test_delete_needs_quorum_too(self):
        _, service = fresh_service()
        service.handle(Request("set", key=b"a", value=b"payload"))
        for node in service.backend.member_nodes()[1:]:
            node.fail()
        assert not service.handle(Request("del", key=b"a")).ok
        assert service.handle(Request("get", key=b"a")).value == b"payload"


class TestLeaseAndFailover:
    def test_first_request_elects_lowest_member(self):
        system, service = fresh_service(lease_us=100.0)
        service.handle(Request("set", key=b"a", value=b"v"))
        assert service._primary == 0
        assert service.backend.metrics().counters["kv.failovers"] == 0

    def test_blackout_until_the_lease_lapses(self):
        system, service = fresh_service(lease_us=100.0)
        service.handle(Request("set", key=b"a", value=b"v"))
        service.backend.member_nodes()[0].fail()
        # The holder is dead but its lease has not provably lapsed:
        # nobody may serve — not even reads.
        response = service.handle(Request("get", key=b"a"))
        assert not response.ok and "unavailable" in response.error
        counters = service.backend.metrics().counters
        assert counters["kv.unavail_rejects"] == 1
        assert counters["kv.failovers"] == 0
        system.clock.advance(200.0)
        assert service.handle(Request("get", key=b"a")).value == b"v"
        counters = service.backend.metrics().counters
        assert counters["kv.failovers"] == 1
        assert counters["kv.failover_us"] > 0
        assert counters["kv.unavail_us"] >= counters["kv.failover_us"]
        assert service._primary == 1

    def test_holder_recovering_within_its_lease_resumes(self):
        system, service = fresh_service(lease_us=1000.0)
        service.handle(Request("set", key=b"a", value=b"v"))
        node = service.backend.member_nodes()[0]
        node.fail()
        service.backend.rejoin(node)  # journal clean: back in service
        assert service.handle(Request("get", key=b"a")).ok
        assert service._primary == 0
        assert service.backend.metrics().counters["kv.failovers"] == 0

    def test_lease_renewed_while_serving(self):
        system, service = fresh_service(lease_us=50.0)
        for i in range(6):
            service.handle(Request("set", key=b"k%d" % i, value=b"v"))
            system.clock.advance(30.0)
        counters = service.backend.metrics().counters
        assert counters["kv.lease_renewals"] >= 1
        assert counters["kv.failovers"] == 0

    def test_resilvering_member_skipped_at_election(self):
        system, service = fresh_service(
            repair="resilver_period=5000,resilver_batch=1", lease_us=100.0)
        backend = service.backend
        service.handle(Request("set", key=b"a", value=b"v"))
        victim = backend.member_nodes()[0]
        victim.fail()
        system.clock.advance(200.0)
        # m1 takes over and writes while m0 is down: m0's journal dirties.
        service.handle(Request("set", key=b"a", value=b"while-down"))
        assert service._primary == 1
        backend.rejoin(victim)  # long resilver period: m0 stays syncing
        backend.member_nodes()[1].fail()
        system.clock.advance(200.0)
        assert service.handle(Request("get", key=b"a")).value == b"while-down"
        assert service._primary == 2
        assert service.backend.metrics().counters["kv.stale_candidates_skipped"] >= 1

    def test_holder_back_but_syncing_hands_the_lease_off(self):
        system, service = fresh_service(
            repair="resilver_period=5000,resilver_batch=1", lease_us=100.0)
        backend = service.backend
        service.handle(Request("set", key=b"a", value=b"v"))
        victim = backend.member_nodes()[0]
        victim.fail()
        system.clock.advance(200.0)
        service.handle(Request("set", key=b"a", value=b"while-down"))
        backend.rejoin(victim)
        # m0 recovered mid-resilver; m1 already holds the lease. Now let
        # m1 die and lapse — m0 is alive but stale, so m2 must win.
        assert service._primary == 1
        backend.member_nodes()[1].fail()
        system.clock.advance(200.0)
        assert service.handle(Request("get", key=b"a")).value == b"while-down"
        assert service._primary == 2

    def test_no_live_clean_candidate_means_unavailable(self):
        system, service = fresh_service(lease_us=50.0)
        service.handle(Request("set", key=b"a", value=b"v"))
        for node in service.backend.member_nodes():
            node.fail()
        system.clock.advance(200.0)
        assert not service.handle(Request("get", key=b"a")).ok
        assert service._primary is None
        assert service.backend.metrics().counters["kv.primary"] == -1.0


class TestAudit:
    def corrupt(self, service, key, header):
        offset = service.backend.slot_offset(service._slots[key])
        length = service._lengths[key]
        value = service.backend.read_bytes(
            offset + 12, length) if length else b""
        service.backend.write_bytes(offset, header + bytes(value))

    def test_version_regression_is_a_lost_update(self):
        system, service = fresh_service()
        service.handle(Request("set", key=b"a", value=b"one"))
        service.handle(Request("set", key=b"a", value=b"two"))
        # Roll the stored record back behind the service's bookkeeping:
        # exactly what a resilver bug or stale rejoin would produce.
        from repro.apps.kvstore import _pack_header
        from zlib import crc32
        stale = _pack_header(1, 3, crc32(b"one") & 0xFFFFFFFF)
        offset = service.backend.slot_offset(service._slots[b"a"])
        service.backend.write_bytes(offset, stale + b"one")
        response = service.handle(Request("get", key=b"a"))
        assert not response.ok and "lost update" in response.error
        assert service.backend.metrics().counters["kv.lost_updates"] == 1
        assert service.verify() == 1

    def test_verify_clean_after_failover(self):
        system, service = fresh_service(lease_us=50.0)
        rng = random.Random(7)
        for i in range(12):
            service.handle(Request("set", key=b"k%d" % i,
                                   value=bytes(rng.randrange(256)
                                               for _ in range(64))))
        victim = service.backend.member_nodes()[0]
        victim.fail()
        system.clock.advance(200.0)
        for i in range(12):
            service.handle(Request("set", key=b"k%d" % i, value=b"post"))
        service.backend.rejoin(victim)
        assert service.verify() == 0
        assert service.backend.metrics().counters["kv.lost_updates"] == 0


class TestSamplerAndFactory:
    def test_build_populates_through_the_write_path(self):
        system = boot()
        service = build_kv_service(system, n_keys=16, value_bytes=64)
        counters = service.backend.metrics().counters
        assert counters["kv.sets"] == 16
        assert service.backend.metrics().counters["kv.keys"] == 16.0
        assert service.handle(Request("get", key=b"kv:7")).ok

    def test_sampler_needs_a_keyspace(self):
        _, service = fresh_service()
        with pytest.raises(ValueError, match="populated keyspace"):
            service.sample_request(random.Random(1))

    def test_sampler_is_deterministic(self):
        system = boot()
        service = build_kv_service(system, n_keys=16, skew=0.9,
                                   write_fraction=0.3)
        draws = [service.sample_request(random.Random(5)) for _ in range(2)]
        assert draws[0] == draws[1]

    def test_sampler_respects_write_fraction_zero(self):
        system = boot()
        service = build_kv_service(system, n_keys=8, write_fraction=0.0)
        rng = random.Random(3)
        assert all(service.sample_request(rng).op == "get"
                   for _ in range(50))

    def test_registry_build_by_kind(self):
        system = boot()
        service = build_service("kv", system, n_keys=4)
        assert service.name == "kv"
        assert service.lease_us == DEFAULT_LEASE_US
