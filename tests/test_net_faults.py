"""Deterministic unit tests for the reliable transport.

With a scripted fault schedule the exact simulated-clock timestamp of
every retry follows from the latency model and the retry policy::

    post_0   = 0 + rdma_post_overhead
    when_k   = post_k + size * per_byte + base          (wire idle)
    detect_k = post_k + timeout_us        (lost attempt)
             = when_k                     (corrupt attempt: checksum NAK)
    post_k+1 = detect_k + backoff(k+1) + rdma_post_overhead

These tests pin those timestamps, the backoff cap, failover, retry-budget
exhaustion, determinism across runs, and the ``MemoryNode.fail()``
in-flight race regression.
"""

import pytest

from repro.common.clock import Clock
from repro.common.units import KIB, MIB, PAGE_SIZE
from repro.alloc import Mimalloc, MimallocGuide
from repro.core import DilosConfig, DilosSystem
from repro.mem import pte as pte_mod
from repro.mem.remote import MemoryNode, NodeFailedError
from repro.net.faults import FaultPlan, RetryPolicy, TransportError, checksum
from repro.net.latency import LatencyModel
from repro.net.qp import NetStats, QueuePair
from repro.net.reliable import ReliableQP
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer


def build_transport(script=None, plan=None, policy=None, siblings=2,
                    capacity=1024 * KIB):
    clock = Clock()
    model = LatencyModel()
    node = MemoryNode(capacity_bytes=capacity)
    stats = NetStats()
    registry = MetricsRegistry()
    if plan is None and script is not None:
        plan = FaultPlan(script=script)
    qps = [QueuePair(f"qp{i}" if i else "qp0", clock, model, node, stats)
           for i in range(siblings)]
    rqp = ReliableQP("rel", clock, model, node, qps, plan=plan,
                     policy=policy, registry=registry)
    return clock, model, node, stats, registry, rqp


class TestCleanPath:
    def test_no_faults_matches_raw_qp_timing(self):
        clock, model, node, stats, registry, rqp = build_transport(script=[])
        completion = rqp.post_read(0, 4096)
        expected = model.rdma_post_overhead + model.rdma_read_latency(4096)
        assert completion.time == pytest.approx(expected)
        assert completion.retries == 0
        assert registry.value("net.ops") == 1
        assert registry.value("net.retry") == 0

    def test_read_round_trips_bytes(self):
        clock, model, node, stats, registry, rqp = build_transport(script=[])
        node.write_bytes(128, b"\xabcd" * 64)
        completion = rqp.post_read(128, 256)
        assert completion.data == node.read_bytes(128, 256)

    def test_reliability_metrics_preregistered_at_zero(self):
        _clock, _model, _node, _stats, registry, _rqp = build_transport(
            script=[])
        for key in ("net.ops", "net.retry", "net.timeout",
                    "net.corrupt_detected", "net.failover", "net.giveup"):
            assert registry.value(key) == 0


class TestRetryTimestamps:
    def test_single_drop_retry_exact_timestamp(self):
        policy = RetryPolicy(timeout_us=50.0, backoff_us=10.0,
                             backoff_cap_us=40.0, max_attempts=6,
                             failover_after=99)
        clock, model, node, stats, registry, rqp = build_transport(
            script=["drop", None], policy=policy)
        completion = rqp.post_read(0, 4096)
        post0 = model.rdma_post_overhead
        detect0 = post0 + 50.0
        post1 = detect0 + 10.0 + model.rdma_post_overhead
        assert completion.time == pytest.approx(
            post1 + model.rdma_read_latency(4096))
        assert completion.retries == 1
        assert registry.value("net.retry") == 1
        assert registry.value("net.timeout") == 1
        assert registry.value("net.corrupt_detected") == 0

    def test_corrupt_detected_at_completion_not_timeout(self):
        policy = RetryPolicy(timeout_us=50.0, backoff_us=10.0,
                             backoff_cap_us=40.0, max_attempts=6,
                             failover_after=99)
        clock, model, node, stats, registry, rqp = build_transport(
            script=["corrupt", None], policy=policy)
        node.write_bytes(0, b"\x5a" * 4096)
        completion = rqp.post_read(0, 4096)
        post0 = model.rdma_post_overhead
        when0 = post0 + model.rdma_read_latency(4096)  # checksum NAK here
        post1 = when0 + 10.0 + model.rdma_post_overhead
        assert completion.time == pytest.approx(
            post1 + model.rdma_read_latency(4096))
        assert completion.data == b"\x5a" * 4096  # retransmission is clean
        assert registry.value("net.corrupt_detected") == 1
        assert registry.value("net.timeout") == 0

    def test_backoff_doubles_then_caps(self):
        policy = RetryPolicy(timeout_us=50.0, backoff_us=10.0,
                             backoff_cap_us=40.0, max_attempts=6,
                             failover_after=99)
        clock, model, node, stats, registry, rqp = build_transport(
            script=["drop"] * 5 + [None], policy=policy)
        tracer = Tracer(enabled=True)
        rqp.active_qp.tracer = tracer  # failover_after=99: one QP carries all
        rqp.post_read(0, 4096)
        # Each attempt's net.read span ends at its completion time; the
        # attempt-to-attempt spacing is timeout + backoff + post overhead.
        times = [e.ts + e.dur for e in tracer.events() if e.name == "net.read"]
        deltas = [b - a for a, b in zip(times, times[1:])]
        expected_backoffs = [10.0, 20.0, 40.0, 40.0, 40.0]  # capped at 40
        assert deltas == pytest.approx(
            [50.0 + b + model.rdma_post_overhead for b in expected_backoffs])
        assert registry.value("net.retry") == 5

    def test_policy_backoff_formula(self):
        policy = RetryPolicy(backoff_us=10.0, backoff_cap_us=200.0)
        assert [policy.backoff(k) for k in range(1, 7)] == [
            10.0, 20.0, 40.0, 80.0, 160.0, 200.0]

    def test_delay_within_timeout_completes_late_without_retry(self):
        policy = RetryPolicy(timeout_us=50.0)
        clock, model, node, stats, registry, rqp = build_transport(
            script=[("delay", 20.0)], policy=policy)
        completion = rqp.post_read(0, 4096)
        base = model.rdma_post_overhead + model.rdma_read_latency(4096)
        assert completion.time == pytest.approx(base + 20.0)
        assert completion.retries == 0
        assert registry.value("net.retry") == 0

    def test_delay_beyond_timeout_is_treated_as_lost(self):
        policy = RetryPolicy(timeout_us=50.0, backoff_us=10.0,
                             backoff_cap_us=40.0, max_attempts=6,
                             failover_after=99)
        clock, model, node, stats, registry, rqp = build_transport(
            script=[("delay", 500.0), None], policy=policy)
        completion = rqp.post_read(0, 4096)
        post0 = model.rdma_post_overhead
        post1 = post0 + 50.0 + 10.0 + model.rdma_post_overhead
        assert completion.time == pytest.approx(
            post1 + model.rdma_read_latency(4096))
        assert registry.value("net.timeout") == 1


class TestFailoverAndExhaustion:
    def test_failover_moves_traffic_to_sibling(self):
        policy = RetryPolicy(timeout_us=50.0, backoff_us=10.0,
                             max_attempts=6, failover_after=2)
        clock, model, node, stats, registry, rqp = build_transport(
            script=["drop", "drop", None], policy=policy)
        primary, alt = rqp._qps
        completion = rqp.post_read(0, 4096)
        assert completion.retries == 2
        assert registry.value("net.failover") == 1
        assert primary.posted == 2 and alt.posted == 1
        assert rqp.active_qp is alt  # failover is sticky

    def test_stalled_primary_recovers_via_sibling(self):
        plan = FaultPlan()
        plan.stall("qp0", 0.0, 100_000.0)  # primary wedged for 100 ms
        policy = RetryPolicy(timeout_us=50.0, backoff_us=10.0,
                             max_attempts=8, failover_after=3)
        clock, model, node, stats, registry, rqp = build_transport(
            plan=plan, policy=policy)
        node.write_bytes(0, b"\x11" * 4096)
        completion = rqp.post_read(0, 4096)
        assert completion.data == b"\x11" * 4096
        assert registry.value("net.failover") == 1
        assert plan.injected.get("stall", 0) == 3

    def test_exhaustion_raises_transport_error_and_charges_clock(self):
        policy = RetryPolicy(timeout_us=50.0, backoff_us=10.0,
                             backoff_cap_us=40.0, max_attempts=3,
                             failover_after=99)
        clock, model, node, stats, registry, rqp = build_transport(
            script=["drop"] * 3, policy=policy)
        with pytest.raises(TransportError):
            rqp.post_read(0, 4096)
        # The clock sits at the last attempt's timeout detection.
        post0 = model.rdma_post_overhead
        post1 = post0 + 50.0 + 10.0 + model.rdma_post_overhead
        post2 = post1 + 50.0 + 20.0 + model.rdma_post_overhead
        assert clock.now == pytest.approx(post2 + 50.0)
        assert registry.value("net.giveup") == 1
        assert registry.value("net.retry") == 2  # retries, not attempts

    def test_transport_error_is_a_node_failed_error(self):
        assert issubclass(TransportError, NodeFailedError)

    def test_failed_write_never_lands_remotely(self):
        policy = RetryPolicy(timeout_us=50.0, max_attempts=2,
                             failover_after=99)
        clock, model, node, stats, registry, rqp = build_transport(
            script=["drop", "drop"], policy=policy)
        with pytest.raises(TransportError):
            rqp.post_write(256, b"\xff" * 64)
        assert node.read_bytes(256, 64) == b"\x00" * 64


class TestScatterGather:
    """The SG verbs move every piece on the attempt that gets through,
    and nothing on an attempt the wire loses or damages."""

    def test_sg_write_lands_whole_on_the_surviving_attempt(self):
        clock, model, node, stats, registry, rqp = build_transport(
            script=["drop", "corrupt", None])
        completion = rqp.wait(rqp.post_write_sg(
            [(0, b"abcd"), (4096, b"efgh")]))
        assert completion.retries == 2 and completion.size == 8
        assert node.read_bytes(0, 4) == b"abcd"
        assert node.read_bytes(4096, 4) == b"efgh"
        assert registry.value("net.ops") == 1
        assert registry.value("net.corrupt_detected") == 1

    def test_lost_sg_write_leaves_every_piece_untouched(self):
        policy = RetryPolicy(timeout_us=50.0, max_attempts=2,
                             failover_after=99)
        clock, model, node, stats, registry, rqp = build_transport(
            script=["drop", "corrupt"], policy=policy)
        with pytest.raises(TransportError):
            rqp.post_write_sg([(0, b"\xff" * 8), (4096, b"\xff" * 8)])
        assert node.read_bytes(0, 8) == bytes(8)
        assert node.read_bytes(4096, 8) == bytes(8)

    def test_sg_read_gathers_in_order_past_a_corrupt_attempt(self):
        clock, model, node, stats, registry, rqp = build_transport(
            script=["corrupt", None])
        node.write_bytes(0, b"head")
        node.write_bytes(8192, b"tail")
        completion = rqp.wait(rqp.post_read_sg([(8192, 4), (0, 4)]))
        assert completion.data == b"tailhead"
        assert completion.retries == 1
        assert registry.value("net.corrupt_detected") == 1


class TestLinkFlap:
    def test_flap_window_times_out_then_recovers(self):
        plan = FaultPlan()
        plan.flap(0.0, 30.0)  # link down for the first 30 us
        policy = RetryPolicy(timeout_us=50.0, backoff_us=10.0,
                             failover_after=99)
        clock, model, node, stats, registry, rqp = build_transport(
            plan=plan, policy=policy)
        completion = rqp.post_read(0, 4096)
        # Attempt 0 posts inside the window -> timeout at 50.05; retry 1
        # posts at 60.10, after the link is back.
        post0 = model.rdma_post_overhead
        post1 = post0 + 50.0 + 10.0 + model.rdma_post_overhead
        assert completion.time == pytest.approx(
            post1 + model.rdma_read_latency(4096))
        assert plan.injected.get("flap", 0) == 1

    def test_periodic_flap_schedule_is_pure_time_function(self):
        plan = FaultPlan(flap_period_us=1000.0, flap_down_us=100.0)
        assert plan.link_down(50.0)
        assert not plan.link_down(500.0)
        assert plan.link_down(1099.0)
        assert not plan.link_down(1100.0)


class TestFlapSpec:
    """A periodic flap needs both a period and a down window shorter
    than it; half a flap used to parse and never take the link down."""

    @pytest.mark.parametrize("text", [
        "flap=2000", "flap=2000:0", "flap=2000:", "flap=:100",
        "flap=100:100", "flap=100:200"])
    def test_spec_needs_period_and_shorter_down_window(self, text):
        with pytest.raises(ValueError):
            FaultPlan.from_spec(text)

    def test_valid_flap_round_trips(self):
        plan = FaultPlan.from_spec("flap=2000:100,seed=3")
        assert (plan.flap_period_us, plan.flap_down_us) == (2000.0, 100.0)
        assert "flap=2000:100" in plan.spec()
        assert FaultPlan.from_spec(plan.spec()).spec() == plan.spec()

    @pytest.mark.parametrize("kwargs", [
        {"flap_period_us": 2000.0},
        {"flap_down_us": 100.0},
        {"flap_period_us": -2000.0, "flap_down_us": 100.0}])
    def test_constructor_rejects_half_a_flap(self, kwargs):
        with pytest.raises(ValueError, match="periodic flap"):
            FaultPlan(**kwargs)


class TestDeterminism:
    @staticmethod
    def _run_once():
        plan = FaultPlan(seed=42, drop=0.2, corrupt=0.1, delay=0.1,
                        delay_us=20.0)
        policy = RetryPolicy(timeout_us=50.0, max_attempts=10)
        clock, model, node, stats, registry, rqp = build_transport(
            plan=plan, policy=policy)
        trace = []
        for i in range(60):
            off = (i % 16) * PAGE_SIZE
            if i % 3 == 0:
                rqp.post_write(off, bytes([i % 251]) * 512)
            completion = rqp.post_read(off, 512)
            trace.append((completion.time, completion.retries,
                          checksum(completion.data)))
        metrics = {k: registry.value(k)
                   for k in ("net.ops", "net.retry", "net.timeout",
                             "net.corrupt_detected", "net.failover")}
        return trace, metrics, clock.now

    def test_same_seed_same_timeline_byte_identical(self):
        first = self._run_once()
        second = self._run_once()
        assert first == second
        assert first[1]["net.retry"] > 0  # the plan actually bit


class TestInFlightNodeFailure:
    """Regression: ``MemoryNode.fail()`` racing an in-flight verb must be
    observed by the issuer — never a silent success."""

    def test_raw_qp_wait_raises_when_node_dies_in_flight(self):
        clock = Clock()
        model = LatencyModel()
        node = MemoryNode(capacity_bytes=1024 * KIB)
        qp = QueuePair("race", clock, model, node, NetStats())
        completion = qp.post_read(0, 4096)
        node.fail()  # response still on the wire
        with pytest.raises(NodeFailedError):
            qp.wait(completion)
        assert completion.failed

    def test_raw_qp_callback_suppressed_when_node_dies_in_flight(self):
        clock = Clock()
        model = LatencyModel()
        node = MemoryNode(capacity_bytes=1024 * KIB)
        qp = QueuePair("race", clock, model, node, NetStats())
        fired = []
        completion = qp.post_read(0, 4096, on_complete=fired.append)
        node.fail()
        clock.advance_to(completion.time + 1.0)
        assert fired == []

    def test_completed_verbs_are_not_retroactively_failed(self):
        clock = Clock()
        model = LatencyModel()
        node = MemoryNode(capacity_bytes=1024 * KIB)
        qp = QueuePair("race", clock, model, node, NetStats())
        completion = qp.post_read(0, 4096)
        qp.wait(completion)  # arrives before the crash
        node.fail()
        assert not completion.failed
        qp.wait(completion)  # still fine to re-wait

    def test_reliable_qp_wait_raises_when_node_dies_in_flight(self):
        clock, model, node, stats, registry, rqp = build_transport(script=[])
        completion = rqp.post_read(0, 4096)
        node.fail()
        with pytest.raises(NodeFailedError):
            rqp.wait(completion)

    def test_reliable_qp_callback_fires_once_after_a_retry(self):
        """The guide's subpage fetch passes a callback to a reliable
        verb: it runs once, when the retried READ completes."""
        clock, model, node, stats, registry, rqp = build_transport(
            script=["drop", None])
        node.write_bytes(0, b"\x3c" * 4096)
        fired = []
        completion = rqp.post_read(
            0, 4096, on_complete=lambda c: fired.append((clock.now, c.data)))
        assert completion.retries == 1
        clock.advance_to(completion.time + 100.0)
        assert fired == [(completion.time, b"\x3c" * 4096)]

    def test_reliable_qp_callback_suppressed_when_node_dies_in_flight(self):
        clock, model, node, stats, registry, rqp = build_transport(script=[])
        fired = []
        completion = rqp.post_read(0, 4096, on_complete=fired.append)
        node.fail()
        clock.advance_to(completion.time + 1.0)
        assert completion.failed
        assert fired == []

    def test_dilos_fetch_lost_to_node_crash_rolls_back(self):
        """A crash while the demand fetch is on the wire surfaces as
        NodeFailedError and the kernel rolls the page back to REMOTE."""
        system = DilosSystem(DilosConfig(local_mem_bytes=1 * MIB,
                                         remote_mem_bytes=16 * MIB))
        region = system.mmap(4 * MIB, name="race")
        pages = region.size // PAGE_SIZE
        for i in range(pages):  # fault everything in, evicting most of it
            system.memory.write(region.base + i * PAGE_SIZE,
                                bytes([i % 251]) * 32)
        system.clock.advance(5000)  # cleaner drains write-backs
        # Page 0 was evicted long ago; kill the node mid-fetch.
        system.clock.call_after(0.5, system.node.fail)
        with pytest.raises(NodeFailedError):
            system.memory.read(region.base, 32)
        assert system.kernel.registry.value("net.fetch_node_failures") >= 1
        free_before_retry = system.frames.free_frames
        assert free_before_retry > 0  # the rolled-back frame was freed

    @pytest.mark.parametrize("guided", [False, True],
                             ids=["remote", "action"])
    def test_dilos_prefetch_lost_to_node_crash_rolls_back(self, guided):
        """A crash with readahead prefetches on the wire rolls each of
        them back too, REMOTE and guided-paging ACTION pages alike: after
        recovery every page reads back its bytes, and no frame stays
        held by a lost fetch."""
        if guided:
            system = DilosSystem(DilosConfig(
                local_mem_bytes=MIB // 2, remote_mem_bytes=16 * MIB))
            alloc = Mimalloc(system, arena_bytes=16 * MIB)
            system.kernel.register_allocator_guide(MimallocGuide(alloc))
            size = 2048  # two live objects per page
            vas = [alloc.malloc(size) for _ in range(32)]
            filler = system.mmap(2 * MIB, name="filler")
        else:
            system = DilosSystem(DilosConfig(local_mem_bytes=1 * MIB,
                                             remote_mem_bytes=16 * MIB))
            size = 32
            region = system.mmap(4 * MIB, name="race")
            vas = [region.base + i * PAGE_SIZE
                   for i in range(region.size // PAGE_SIZE)]
            filler = None
        for i, va in enumerate(vas):
            system.memory.write(va, bytes([i % 251 + 1]) * size)
        if filler is not None:  # push the objects' pages out
            for i in range(filler.size // PAGE_SIZE):
                system.memory.write(filler.base + i * PAGE_SIZE, b"f")
        system.clock.advance(8000)  # cleaner drains write-backs
        pt = system.addr_space.page_table
        first = vas[0] // PAGE_SIZE
        evicted = pt.get(first)
        assert evicted & 0b111 == (0b110 if guided else 0b010)  # ACTION/REMOTE
        # Kill the node once the demand READ of the first page and the
        # readahead window behind it are all on the wire.
        system.clock.call_after(1.3, system.node.fail)
        with pytest.raises(NodeFailedError):
            system.memory.read(vas[0], 1)

        def fetching():
            return [vpn - first for vpn, entry in pt.entries()
                    if entry & 0b111 == pte_mod.PTE_USER]

        in_flight = fetching()
        assert in_flight == list(range(1, 8))  # the readahead window
        system.clock.advance(100)  # every lost prefetch lands
        assert fetching() == []
        assert pt.get(first + 1) & 0b111 == evicted & 0b111  # tag restored
        registry = system.kernel.registry
        assert registry.value("net.fetch_node_failures") == 1 + len(in_flight)
        system.node.recover()
        for i, va in enumerate(vas):
            assert system.memory.read(va, size) == bytes([i % 251 + 1]) * size
        system.clock.advance(100)
        present = sum(1 for _vpn, entry in pt.entries()
                      if entry & pte_mod.PTE_PRESENT)
        assert system.frames.used_frames == present  # no frame leaked
