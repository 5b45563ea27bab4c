"""Transport chaos suite: random workloads under random fault plans.

Hypothesis drives seeded workloads over all three kernels while a random
:class:`FaultPlan` drops, corrupts, delays, and flaps the wire. The
properties that must hold regardless of the schedule:

* **every byte is preserved** — the reliable transport's checksum +
  retry path never lets a damaged or lost transfer leak into data;
* **the workload always completes** — ``max_consecutive`` bounds random
  fault bursts below the retry budget, so no verb ever exhausts it;
* **retry counts are bounded** — ``net.retry`` can never exceed the
  per-verb budget times the number of verbs issued.

One fixed plan (``FIXED_PLAN``) also runs on each kernel twice: it must
bite, and the same seed must replay the run step for step.

The high-volume variant is marked ``slow`` (run it alone with
``pytest -m slow``; scale it with ``REPRO_CHAOS_EXAMPLES``).
"""

import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.seqrw import SequentialWorkload
from repro.common.units import MIB, PAGE_SIZE
from repro.harness import make_system
from repro.net.faults import FaultPlan, RetryPolicy

CHAOS_EXAMPLES = int(os.environ.get("REPRO_CHAOS_EXAMPLES", "6"))

#: Random-fault budget per verb: with ``max_consecutive=2`` at most two
#: random faults hit any verb, far below the 10-attempt retry budget.
RETRY_POLICY = RetryPolicy(max_attempts=10)
MAX_CONSECUTIVE = 2

fault_plans = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=2 ** 16),
    drop=st.floats(min_value=0.0, max_value=0.08),
    corrupt=st.floats(min_value=0.0, max_value=0.05),
    delay=st.floats(min_value=0.0, max_value=0.05),
    delay_us=st.floats(min_value=5.0, max_value=35.0),
    max_consecutive=st.just(MAX_CONSECUTIVE),
)


def run_paging_workload(kind, plan, seed, steps=250):
    """Random read/write mix against a shadow dict; returns metrics."""
    system = make_system(kind, 1 * MIB, remote_bytes=16 * MIB,
                         net_faults=plan, net_retry=RETRY_POLICY)
    region = system.mmap(2 * MIB, name="netchaos")
    pages = region.size // PAGE_SIZE
    rng = random.Random(seed)
    shadow = {}
    for step in range(steps):
        page = rng.randrange(pages)
        va = region.base + page * PAGE_SIZE
        if page in shadow and rng.random() < 0.4:
            assert system.memory.read(va, 16) == shadow[page], (
                f"{kind}: page {page} corrupted under {plan.spec()}")
        else:
            payload = bytes([(step * 7 + page) % 251] * 16)
            system.memory.write(va, payload)
            shadow[page] = payload
    for page, payload in shadow.items():
        assert system.memory.read(region.base + page * PAGE_SIZE, 16) == \
            payload, f"{kind}: page {page} lost under {plan.spec()}"
    return system.metrics().counters


def assert_bounded_retries(metrics):
    ops = metrics.get("net.ops", 0)
    retries = metrics.get("net.retry", 0)
    assert metrics.get("net.giveup", 0) == 0
    # Random faults stop after MAX_CONSECUTIVE attempts per verb, so no
    # verb retries more than MAX_CONSECUTIVE times (no windows here).
    assert retries <= MAX_CONSECUTIVE * ops


@settings(max_examples=CHAOS_EXAMPLES, deadline=None)
@given(plan=fault_plans, seed=st.integers(min_value=0, max_value=10_000))
def test_dilos_preserves_bytes_under_random_faults(plan, seed):
    metrics = run_paging_workload("dilos-readahead", plan, seed)
    assert_bounded_retries(metrics)


@settings(max_examples=CHAOS_EXAMPLES, deadline=None)
@given(plan=fault_plans, seed=st.integers(min_value=0, max_value=10_000))
def test_fastswap_preserves_bytes_under_random_faults(plan, seed):
    metrics = run_paging_workload("fastswap", plan, seed)
    assert_bounded_retries(metrics)


@settings(max_examples=CHAOS_EXAMPLES, deadline=None)
@given(plan=fault_plans, seed=st.integers(min_value=0, max_value=10_000))
def test_aifm_preserves_objects_under_random_faults(plan, seed):
    runtime = make_system("aifm", 256 * 1024, remote_bytes=16 * MIB,
                          net_faults=plan, net_retry=RETRY_POLICY)
    rng = random.Random(seed)
    ptrs = []
    for i in range(192):
        ptrs.append((i, runtime.allocate(2048, bytes([i % 251]) * 2048)))
    rng.shuffle(ptrs)
    for i, ptr in ptrs:
        if rng.random() < 0.3:
            ptr.prefetch()
        assert ptr.read() == bytes([i % 251]) * 2048, (
            f"object {i} corrupted under {plan.spec()}")
    assert_bounded_retries(runtime.metrics().counters)


#: A fixed degraded wire (>= 1% drop plus corruption) that every kernel
#: must survive with zero data loss (docs/RELIABILITY.md).
FIXED_PLAN = "drop=0.015,corrupt=0.01,seed=11,max_consecutive=3"


def run_fixed_plan(kind):
    """A verified sequential read (paging kernels) or object write+read
    sweep (AIFM) under :data:`FIXED_PLAN`; returns the final clock and
    metrics snapshot."""
    if kind == "aifm":
        system = make_system("aifm", 256 * 1024, net_faults=FIXED_PLAN)
        ptrs = [system.allocate(2048, bytes([i % 251]) * 2048)
                for i in range(384)]
        for i, ptr in enumerate(ptrs):
            assert ptr.read() == bytes([i % 251]) * 2048, f"object {i}"
    else:
        workload = SequentialWorkload(2 * MIB)
        system = make_system(kind, workload.footprint_bytes // 4,
                             net_faults=FIXED_PLAN)
        workload.run(system, mode="read", verify=True)
    return system.clock.now, system.metrics()


@pytest.mark.parametrize("kind", ["dilos-readahead", "fastswap", "aifm"])
def test_fixed_plan_bites_and_replays_identically(kind):
    """The plan actually bites (retries), no verb exhausts its budget,
    and the same seed replays the whole run step for step."""
    clock, snap = run_fixed_plan(kind)
    assert snap.value("net.retry") > 0
    assert snap.value("net.giveup") == 0
    again_clock, again = run_fixed_plan(kind)
    assert again_clock == clock
    assert again.digest() == snap.digest()


@settings(max_examples=max(4, CHAOS_EXAMPLES // 2), deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       period=st.floats(min_value=800.0, max_value=4000.0),
       down=st.floats(min_value=20.0, max_value=120.0))
def test_periodic_link_flap_never_loses_data(seed, period, down):
    """A flapping link (real outage windows, uncapped) still loses no
    bytes: the retry horizon out-waits any window the strategy builds."""
    plan = FaultPlan(seed=seed, flap_period_us=period, flap_down_us=down)
    metrics = run_paging_workload("dilos-readahead", plan, seed, steps=150)
    assert metrics.get("net.giveup", 0) == 0


@pytest.mark.slow
@settings(max_examples=int(os.environ.get("REPRO_CHAOS_EXAMPLES", "12")),
          deadline=None)
@given(plan=fault_plans, seed=st.integers(min_value=0, max_value=10_000),
       kind=st.sampled_from(["dilos-readahead", "dilos-trend", "fastswap"]))
def test_chaos_high_volume(plan, seed, kind):
    """Longer runs across more kernel flavors; scale with
    ``REPRO_CHAOS_EXAMPLES`` outside tier-1."""
    metrics = run_paging_workload(kind, plan, seed, steps=500)
    assert_bounded_retries(metrics)
