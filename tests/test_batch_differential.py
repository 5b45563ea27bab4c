"""Differential suite: batch execution vs scalar, byte-exact.

The vectorized batch engine (:mod:`repro.mem.batch`) promises that
splitting an access run into TLB-hit spans and executing each span as a
single numpy gather/scatter changes *nothing observable in the
simulation*: every byte returned, the simulated clock, every counter,
the TLB's LRU order, and the canonical metrics digest must all match the
scalar per-page loops exactly. This suite checks that promise three
ways:

* a Hypothesis property over twin ``VirtualMemory`` stacks (tiny TLB,
  tiny frame pool, a FIFO-evicting pager) driving one through the batch
  APIs (``read_batch``/``write_batch``/``apply_trace``/``read_into``/
  ``write_from``) and the other through scalar ``read``/``write`` loops,
  with evictions and shootdowns interleaved so batches cross page,
  fault, and span-threshold boundaries;
* the same twin stacks running batches of many sub-page elements while
  probe timers fire mid-batch (periodic, and one-shot ones armed at or
  before the current time), which is where the order of the sub-page
  loop's clock, TLB-hit and byte-counter accounting shows;
* booted-kernel differentials for all three kernels (DiLOS, Fastswap,
  AIFM) comparing data, final clock, and metrics digests;
* the same kernel differential under a ``net_faults`` plan, where every
  remote transfer rides the reliable transport's drop/corrupt/delay
  schedule.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.units import MIB, PAGE_SIZE
from repro.harness import make_system
from repro.mem import batch
from repro.mem.vm import VirtualMemory
from repro.net.faults import RetryPolicy
from tests.test_vm_differential import N_PAGES, SimplePager, _build

_SPAN = N_PAGES * PAGE_SIZE
#: Element sizes straddle ``batch.SPAN_THRESHOLD`` (2 pages) so every
#: run exercises both the numpy span path and the scalar fallback.
_MAX_ELEM = 3 * PAGE_SIZE


def _clamp(va: int, size: int) -> int:
    return min(size, _SPAN - va)


_elem = st.tuples(st.integers(0, _SPAN - 1), st.integers(1, _MAX_ELEM))

_op = st.one_of(
    st.tuples(st.just("read_batch"), st.lists(_elem, min_size=1, max_size=4)),
    st.tuples(st.just("write_batch"),
              st.lists(_elem, min_size=1, max_size=4),
              st.integers(0, 255)),
    st.tuples(st.just("trace"),
              st.lists(st.tuples(st.booleans(), _elem), min_size=1,
                       max_size=5),
              st.integers(0, 255)),
    st.tuples(st.just("read_into"), _elem),
    st.tuples(st.just("write_from"), _elem, st.integers(0, 255)),
    st.tuples(st.just("shootdown"), st.integers(0, N_PAGES - 1)),
    st.tuples(st.just("evict"), st.integers(0, N_PAGES - 1)),
)


def _payload(fill: int, size: int) -> bytes:
    return bytes((fill + i) & 0xFF for i in range(size))


def _apply_batch(op, vm, pager):
    kind = op[0]
    if kind == "read_batch":
        cells = [(va, _clamp(va, size)) for va, size in op[1]]
        return vm.read_batch([c[0] for c in cells], [c[1] for c in cells])
    if kind == "write_batch":
        cells = [(va, _clamp(va, size)) for va, size in op[1]]
        vm.write_batch([c[0] for c in cells],
                       [_payload(op[2], c[1]) for c in cells])
        return None
    if kind == "trace":
        ops = []
        for is_write, (va, size) in op[1]:
            size = _clamp(va, size)
            if is_write:
                ops.append(("w", va, _payload(op[2], size)))
            else:
                ops.append(("r", va, size))
        return vm.apply_trace(ops)
    if kind == "read_into":
        va, size = op[1]
        size = _clamp(va, size)
        out = np.empty(size, dtype=np.uint8)
        vm.read_into(va, out)
        return out.tobytes()
    if kind == "write_from":
        va, size = op[1]
        size = _clamp(va, size)
        vm.write_from(va, np.frombuffer(_payload(op[2], size),
                                        dtype=np.uint8))
        return None
    if kind == "shootdown":
        pager.shootdown(op[1])
        return None
    pager.evict_vpn(op[1])
    return None


def _apply_scalar(op, vm, pager):
    kind = op[0]
    if kind == "read_batch":
        return [vm.read(va, _clamp(va, size)) for va, size in op[1]]
    if kind == "write_batch":
        for va, size in op[1]:
            vm.write(va, _payload(op[2], _clamp(va, size)))
        return None
    if kind == "trace":
        results = []
        for is_write, (va, size) in op[1]:
            size = _clamp(va, size)
            if is_write:
                vm.write(va, _payload(op[2], size))
                results.append(None)
            else:
                results.append(vm.read(va, size))
        return results
    if kind == "read_into":
        va, size = op[1]
        return vm.read(va, _clamp(va, size))
    if kind == "write_from":
        va, size = op[1]
        size = _clamp(va, size)
        vm.write(va, _payload(op[2], size))
        return None
    if kind == "shootdown":
        pager.shootdown(op[1])
        return None
    pager.evict_vpn(op[1])
    return None


@settings(max_examples=60, deadline=None)
@given(st.lists(_op, max_size=40))
def test_batch_vm_matches_scalar_vm(ops):
    """Twin VM stacks: batch APIs vs scalar loops, exact equality on
    bytes, clock, TLB state (including LRU order), counters, and page
    contents — with faults, evictions, and shootdowns interleaved."""
    b_vm, b_pager, b_clock = _build(VirtualMemory)
    s_vm, s_pager, s_clock = _build(VirtualMemory)

    for op in ops:
        got = _apply_batch(op, b_vm, b_pager)
        want = _apply_scalar(op, s_vm, s_pager)
        assert got == want, f"returned bytes diverged on {op}"
        assert b_clock.now == s_clock.now, f"clock diverged on {op}"
    _assert_twins_agree(b_vm, b_pager, s_vm, s_pager)


def _assert_twins_agree(b_vm, b_pager, s_vm, s_pager):
    """Final state of twin stacks: faults, TLB counts and LRU order,
    byte counters, page contents and PTEs."""
    assert b_pager.faults == s_pager.faults
    assert b_vm.tlb.hits == s_vm.tlb.hits
    assert b_vm.tlb.misses == s_vm.tlb.misses
    assert list(b_vm.tlb.entries) == list(s_vm.tlb.entries)
    assert b_vm.counters.as_dict() == s_vm.counters.as_dict()
    for vpn in range(N_PAGES):
        assert b_pager.page_bytes(vpn) == s_pager.page_bytes(vpn), (
            f"page {vpn} contents diverged")
        assert b_vm._pt.get(vpn) == s_vm._pt.get(vpn), f"PTE {vpn} diverged"


# -- sub-page batches with timers firing mid-batch ---------------------------
#
# The sub-page loop does a scalar call's one-page step itself, so its
# accounting order (hit, copy, clock charge, byte counter) is what a
# timer firing inside a batch sees: a probe must see exactly the state
# the scalar run shows it, and may evict a page the rest of the batch
# then faults on again.

_MAX_BATCH = 32
_sub_elem = st.tuples(
    st.integers(0, N_PAGES - 1),
    # Offsets near the page end make elements cross the boundary.
    st.one_of(st.integers(0, PAGE_SIZE - 1),
              st.integers(PAGE_SIZE - 256, PAGE_SIZE - 1)),
    st.integers(1, 256))
_sub_batch = st.lists(_sub_elem, min_size=1, max_size=_MAX_BATCH)
_sub_op = st.one_of(
    st.tuples(st.just("read_batch"), _sub_batch),
    st.tuples(st.just("write_batch"), _sub_batch, st.integers(0, 255)),
    st.tuples(st.just("trace"),
              st.lists(st.tuples(st.booleans(), _sub_elem), min_size=1,
                       max_size=_MAX_BATCH),
              st.integers(0, 255)),
    st.tuples(st.just("evict"), st.integers(0, N_PAGES - 1)),
    # A one-shot probe armed between batches, due 0 or 1 ns in the past.
    st.tuples(st.just("arm"), st.sampled_from([0.0, 0.001])),
)


def _sub_page_op(op):
    """Map a sub-page op onto the ``_apply_batch``/``_apply_scalar``
    vocabulary (byte addresses, clamped to the span)."""
    def cell(elem):
        page, offset, size = elem
        va = page * PAGE_SIZE + offset
        return va, _clamp(va, size)
    if op[0] == "trace":
        return ("trace", [(w, cell(e)) for w, e in op[1]], op[2])
    if op[0] in ("evict", "arm"):
        return op
    return (op[0], [cell(e) for e in op[1]]) + tuple(op[2:])


class _Probes:
    """A periodic probe timer on one twin stack, plus one-shot probes
    armed at or before the current time, by the pager's fault handler
    or between batches.

    Each firing logs the clock, TLB counts and byte counters, and the
    ``victims`` plan decides whether it evicts a page; the twins share
    the plan, so their logs agree only if every firing sees the same
    state at the same simulated instant.
    """

    def __init__(self, vm, pager, clock, period, victims, shots):
        self.vm, self.pager, self.clock = vm, pager, clock
        self.period = period
        self.victims = victims
        self.log = []
        self.faults = 0
        handle = pager.handle_fault

        def handle_fault(va, is_write):
            handle(va, is_write)
            back = shots[self.faults % len(shots)]
            self.faults += 1
            if back is not None:
                self.arm(back)

        vm.attach_kernel(handle_fault)
        clock.call_after(period, self.tick)

    def arm(self, back):
        self.clock.call_at(self.clock.now - back, lambda: self.fire("shot"))

    def tick(self):
        self.fire("tick")
        self.clock.call_after(self.period, self.tick)

    def fire(self, tag):
        vm = self.vm
        self.log.append((tag, self.clock.now, vm.tlb.hits, vm.tlb.misses,
                         sorted(vm.counters.as_dict().items())))
        victim = self.victims[len(self.log) % len(self.victims)]
        if victim is not None:
            self.pager.evict_vpn(victim)


def _check_timed_batches(ops, period_ns, victims, shots):
    stacks = []
    for _ in range(2):
        vm, pager, clock = _build(VirtualMemory)
        stacks.append((vm, pager, clock,
                       _Probes(vm, pager, clock, period_ns / 1000.0,
                               victims, shots)))
    (b_vm, b_pager, b_clock, b_probes), (s_vm, s_pager, s_clock, s_probes) \
        = stacks
    for op in map(_sub_page_op, ops):
        if op[0] == "arm":
            b_probes.arm(op[1])
            s_probes.arm(op[1])
            continue
        got = _apply_batch(op, b_vm, b_pager)
        want = _apply_scalar(op, s_vm, s_pager)
        assert got == want, f"returned bytes diverged on {op}"
        assert b_clock.now == s_clock.now, f"clock diverged on {op}"
        assert b_probes.log == s_probes.log, f"probe log diverged on {op}"
    _assert_twins_agree(b_vm, b_pager, s_vm, s_pager)


_timed = (
    st.lists(_sub_op, min_size=1, max_size=12),
    # Probe period in ns: an element charges 0.1-25.6 ns of copy time.
    st.integers(1, 60),
    st.lists(st.one_of(st.none(), st.integers(0, N_PAGES - 1)),
             min_size=1, max_size=8),
    # Per fault: no one-shot probe, or one due 0 or 1 ns in the past.
    st.lists(st.sampled_from([None, None, 0.0, 0.001]), min_size=1,
             max_size=8),
)


@settings(max_examples=40, deadline=None)
@given(*_timed)
def test_sub_page_batches_match_scalar_with_timers(ops, period_ns, victims,
                                                   shots):
    """Twin stacks with probe timers firing mid-batch: the batch APIs and
    the scalar loops agree on bytes, clock, TLB counts and LRU order,
    counters, page contents and every probe firing."""
    _check_timed_batches(ops, period_ns, victims, shots)


@pytest.mark.slow
@settings(max_examples=int(os.environ.get("REPRO_CHAOS_EXAMPLES", "200")),
          deadline=None)
@given(*_timed)
def test_sub_page_batches_match_scalar_with_timers_slow(ops, period_ns,
                                                        victims, shots):
    """The timer differential above at volume (scale it with
    ``REPRO_CHAOS_EXAMPLES``)."""
    _check_timed_batches(ops, period_ns, victims, shots)


# -- booted kernels ----------------------------------------------------------

_REGION = 1 * MIB
_LOCAL = 256 * 1024  # a quarter of the region: batches cross real faults

_kernel_op = st.tuples(
    st.booleans(),                        # write?
    st.integers(0, _REGION - 1),
    st.integers(1, _MAX_ELEM),
    st.integers(0, 255),
)


def _run_kernel(kind: str, ops, batched: bool, net_faults=None):
    extra = {}
    if net_faults is not None:
        extra = {"net_faults": net_faults,
                 "net_retry": RetryPolicy(max_attempts=10)}
    system = make_system(kind, _LOCAL, remote_bytes=16 * MIB, **extra)
    region = system.mmap(_REGION, name="batchdiff")
    trace = []
    for is_write, va, size, fill in ops:
        va += region.base
        size = min(size, region.base + _REGION - va)
        if is_write:
            trace.append(("w", va, _payload(fill, size)))
        else:
            trace.append(("r", va, size))
    if batched:
        with batch.force(True):
            results = system.memory.apply_trace(trace)
    else:
        results = []
        with batch.force(False):
            for op in trace:
                if op[0] == "r":
                    results.append(system.memory.read(op[1], op[2]))
                else:
                    system.memory.write(op[1], op[2])
                    results.append(None)
    return results, system.clock.now, system.metrics().digest()


@settings(max_examples=10, deadline=None)
@given(st.lists(_kernel_op, min_size=1, max_size=25),
       st.sampled_from(["dilos-readahead", "fastswap"]))
def test_batch_matches_scalar_on_booted_kernels(ops, kind):
    """Full kernel stacks (fault handler, cleaner, remote backend):
    batch and scalar runs agree on data, clock, and metrics digest."""
    b_data, b_clock, b_digest = _run_kernel(kind, ops, batched=True)
    s_data, s_clock, s_digest = _run_kernel(kind, ops, batched=False)
    assert b_data == s_data, f"{kind}: data diverged"
    assert b_clock == s_clock, f"{kind}: simulated clock diverged"
    assert b_digest == s_digest, f"{kind}: metrics digest diverged"


@settings(max_examples=6, deadline=None)
@given(st.lists(_kernel_op, min_size=1, max_size=15),
       st.sampled_from(["dilos-readahead", "fastswap"]),
       st.integers(0, 2 ** 16))
def test_batch_matches_scalar_under_net_faults(ops, kind, seed):
    """Same differential with every remote transfer riding a faulty
    wire: the reliable transport's retries are part of the accounting
    the batch path must reproduce exactly."""
    plan = f"drop=0.02,corrupt=0.01,delay=0.02,delay_us=10,seed={seed}"
    b = _run_kernel(kind, ops, batched=True, net_faults=plan)
    s = _run_kernel(kind, ops, batched=False, net_faults=plan)
    assert b == s, f"{kind}: batch diverged from scalar under {plan}"


# -- AIFM --------------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 511),
                          st.integers(0, 255)),
                min_size=1, max_size=60))
def test_aifm_batch_deref_matches_scalar(ops):
    """AIFM's batched dereference vs per-item get/set on twin runtimes
    sized to force evictions mid-batch."""
    from repro.baselines.aifm.arrays import RemArray

    def run(batched: bool):
        system = make_system("aifm", 64 * 1024, remote_bytes=4 * MIB)
        array = RemArray(system, count=512, item_size=64)
        out = []
        reads = [(i, idx) for i, (w, idx, _f) in enumerate(ops) if not w]
        writes = [(i, idx, _payload(f, 64))
                  for i, (w, idx, f) in enumerate(ops) if w]
        if batched:
            if writes:
                array.set_batch([w[1] for w in writes],
                                [w[2] for w in writes])
            if reads:
                out = array.get_batch([r[1] for r in reads])
        else:
            for _i, idx, data in writes:
                array.set(idx, data)
            out = [array.get(idx) for _i, idx in reads]
        return out, system.clock.now, system.metrics().digest()

    assert run(True) == run(False)
