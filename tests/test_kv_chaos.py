"""Chaos property tests for the replicated KV service.

The acceptance sequence from ROADMAP item 4, driven by hypothesis: a
seeded write burst, the lease-holding member killed at a random point
mid-burst, the split-brain blackout ridden out until the lease provably
lapses, failover to a clean member, the victim rejoined and resilvered
to promotion — and at the end the audit must find **zero** lost
updates: every acknowledged write reads back byte-exact straight off
the backend, on ``replicated:N`` and ``parity:K+1`` alike. Responses
the service rejected (no quorum, no lease) must leave no trace at all.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.api import Request
from repro.apps.kvstore import build_kv_service
from repro.common.units import MIB
from repro.harness import make_system
from repro.harness.scenarios import SCENARIOS
from repro.mem.repair import RepairManager

pytestmark = pytest.mark.slow

LEASE_US = 150.0


def build(backend_spec):
    system = make_system("dilos-stride", local_bytes=1 * MIB,
                         remote_bytes=16 * MIB, backend=backend_spec)
    RepairManager(system.node, system.clock,
                  policy="resilver_period=200,resilver_batch=16")
    service = build_kv_service(system, n_keys=24, value_bytes=96,
                               lease_us=LEASE_US, seed=11)
    return system, service


def value_for(rng):
    return bytes(rng.randrange(256) for _ in range(rng.randrange(1, 96)))


def drive(rng, service, shadow, steps):
    """A GET/SET/DEL burst; the shadow tracks only *acknowledged* state,
    and any successful GET must match it byte-for-byte."""
    for _ in range(steps):
        key = b"kv:%d" % rng.randrange(service.n_keys)
        roll = rng.random()
        if roll < 0.5:
            value = value_for(rng)
            if service.handle(Request("set", key=key, value=value)).ok:
                shadow[key] = value
        elif roll < 0.6:
            response = service.handle(Request("del", key=key))
            if response.ok and response.value is True:
                shadow.pop(key, None)
        else:
            response = service.handle(Request("get", key=key))
            if response.ok:
                assert response.value == shadow[key], \
                    f"acked GET of {key!r} returned bytes never acked"


def resilver_to_promotion(system, backend):
    guard = 0
    while backend.degraded:
        system.clock.advance(1000)
        guard += 1
        assert guard < 5000, "resilver never converged"


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       backend_spec=st.sampled_from(["replicated:3", "replicated:4",
                                     "parity:2+1", "parity:3+1"]),
       kill_point=st.floats(min_value=0.2, max_value=0.7))
def test_kill_failover_rejoin_resilver_loses_nothing(
        seed, backend_spec, kill_point):
    system, service = build(backend_spec)
    backend = service.backend
    rng = random.Random(seed)
    shadow = {key: None for key in ()}
    # Seed the shadow with the factory's population (all acked SETs).
    population = random.Random(11)
    from repro.common.rng import seeded_value
    for i in range(service.n_keys):
        shadow[b"kv:%d" % i] = seeded_value(population,
                                            service.value_bytes)

    steps = 300
    crash_step = int(steps * kill_point)
    drive(rng, service, shadow, crash_step)
    victim_member = service._primary
    assert victim_member is not None
    victim = backend.member_nodes()[victim_member]
    victim.fail()
    # Mid-blackout traffic: everything must be cleanly rejected or,
    # after the lease lapses, served by the failover primary.
    drive(rng, service, shadow, 30)
    system.clock.advance(2 * LEASE_US)
    drive(rng, service, shadow, steps - crash_step)
    assert service._primary is not None
    assert service._primary != victim_member
    assert backend.registry.value("kv.failovers") >= 1

    assert backend.rejoin(victim) is False  # async resilver
    drive(rng, service, shadow, 50)  # keep writing while it syncs
    resilver_to_promotion(system, backend)
    assert backend.stale_slots == 0

    # The end-of-run audit: every acknowledged write, straight off the
    # backend, byte-exact — and the canonical counter reads 0.
    assert service.verify() == 0
    assert backend.registry.value("kv.lost_updates") == 0
    for key, value in sorted(shadow.items()):
        response = service.handle(Request("get", key=key))
        assert response.ok and response.value == value, \
            f"{backend_spec}: {key!r} lost after failover+resilver"
    assert backend.registry.value("kv.lost_updates") == 0


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       backend_spec=st.sampled_from(["replicated:3", "parity:2+1"]))
def test_chaos_wire_never_surfaces_unacked_writes(seed, backend_spec):
    """With a lossy, corrupting replication wire the service may reject
    requests (transport give-up) but a rejected SET must leave the old
    record intact and an acked one must be durable — the no-partial-
    effect contract end to end."""
    system = make_system("dilos-stride", local_bytes=1 * MIB,
                         remote_bytes=16 * MIB, backend=backend_spec)
    RepairManager(system.node, system.clock,
                  policy="resilver_period=200,resilver_batch=16")
    service = build_kv_service(
        system, n_keys=16, value_bytes=80, lease_us=LEASE_US, seed=seed,
        net_faults=f"drop=0.02,corrupt=0.01,seed={seed}")
    rng = random.Random(seed)
    shadow = {}
    population = random.Random(seed)
    from repro.common.rng import seeded_value
    for i in range(service.n_keys):
        shadow[b"kv:%d" % i] = seeded_value(population,
                                            service.value_bytes)
    drive(rng, service, shadow, 250)
    assert service.verify() == 0
    assert service.backend.registry.value("kv.lost_updates") == 0


@pytest.mark.parametrize("backend", ["replicated:3", "parity:2+1"])
def test_kv_failover_scenario_ledger_and_replay(backend):
    """The ``kv_failover`` scenario (``repro run kv_failover``) on both
    redundant backend families: the lease-holder kill fails over after a
    split-brain blackout, failover latency is accounted inside the
    unavailability window, the rejoined member resilvers back to full
    service, no acknowledged write is lost — and a replay is
    byte-identical."""
    first = SCENARIOS["kv_failover"].build(backend=backend)
    counters = first.target.metrics().counters
    assert counters["kv.lost_updates"] == 0
    assert counters["kv.failovers"] >= 1
    assert counters["kv.unavail_rejects"] > 0
    assert 0 < counters["kv.failover_us"] <= counters["kv.unavail_us"]
    assert counters["repair.pages_resilvered"] > 0
    assert counters["repair.nodes_promoted"] == 1
    assert first.target.backend.stale_slots == 0
    again = SCENARIOS["kv_failover"].build(backend=backend)
    assert again.report.trace_digest == first.report.trace_digest
    assert again.digest() == first.digest()
    assert again.sim_us == first.sim_us
