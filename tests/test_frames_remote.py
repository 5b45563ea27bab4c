"""Unit tests for the frame pool and the memory node."""

import multiprocessing
import os
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import Clock
from repro.common.errors import OutOfMemoryError
from repro.common.units import GIB, KIB, MIB, PAGE_SIZE
from repro.mem.frames import FramePool
from repro.mem.remote import MemoryNode
from repro.net.latency import LatencyModel
from repro.net.qp import NetStats, QueuePair


class TestFramePool:
    def test_alloc_free_cycle(self):
        pool = FramePool(4)
        frames = [pool.alloc() for _ in range(4)]
        assert len(set(frames)) == 4
        assert pool.free_frames == 0
        with pytest.raises(OutOfMemoryError):
            pool.alloc()
        pool.free(frames[0])
        assert pool.free_frames == 1
        assert pool.alloc() == frames[0]

    def test_frames_zeroed_on_alloc(self):
        pool = FramePool(2)
        f = pool.alloc()
        pool.data(f)[:4] = b"dirt"
        pool.free(f)
        f2 = pool.alloc()
        assert f2 == f
        assert bytes(pool.data(f2)[:4]) == b"\x00" * 4

    def test_double_free_rejected(self):
        pool = FramePool(2)
        f = pool.alloc()
        pool.free(f)
        with pytest.raises(ValueError):
            pool.free(f)

    def test_data_of_unallocated_rejected(self):
        with pytest.raises(ValueError):
            FramePool(2).data(0)

    def test_out_of_range_free_rejected(self):
        with pytest.raises(ValueError):
            FramePool(2).free(5)

    def test_counts(self):
        pool = FramePool(8)
        pool.alloc()
        pool.alloc()
        assert pool.used_frames == 2
        assert pool.free_frames == 6


class TestMemoryNode:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            MemoryNode(100)  # not page-multiple
        with pytest.raises(ValueError):
            MemoryNode(0)

    def test_rw_roundtrip(self):
        node = MemoryNode(64 * KIB)
        node.write_bytes(1000, b"payload")
        assert node.read_bytes(1000, 7) == b"payload"

    def test_bounds_checked(self):
        node = MemoryNode(2 * PAGE_SIZE)
        with pytest.raises(ValueError):
            node.read_bytes(2 * PAGE_SIZE - 1, 2)
        with pytest.raises(ValueError):
            node.write_bytes(-1, b"x")

    def test_negative_read_size_rejected(self):
        """A negative size must not reach the slice, whose negative stop
        gives b"" when offset + size >= 0 and nearly the whole node when
        it is below 0."""
        node = MemoryNode(1024 * KIB)
        with pytest.raises(ValueError):
            node.read_bytes(0, -PAGE_SIZE)
        with pytest.raises(ValueError):
            node.read_bytes(2 * PAGE_SIZE, -PAGE_SIZE)

    def test_rejected_negative_read_leaves_the_wire_alone(self):
        """The rejected verb must not move the QP's wire time back or
        subtract from the byte counters: a twin QP that never saw it
        completes its next read at the same time, with the same totals."""
        def fabric():
            clock, stats = Clock(), NetStats()
            qp = QueuePair("q", clock, LatencyModel(),
                           MemoryNode(1024 * KIB), stats)
            qp.post_read(0, PAGE_SIZE)
            return clock, stats, qp

        clock, stats, qp = fabric()
        twin_clock, twin_stats, twin = fabric()
        with pytest.raises(ValueError):
            qp.post_read(0, -PAGE_SIZE)
        assert clock.now == twin_clock.now
        assert (stats.bytes_read, stats.ops_read, qp.posted) == \
            (twin_stats.bytes_read, twin_stats.ops_read, twin.posted) == \
            (PAGE_SIZE, 1, 1)
        assert qp.post_read(PAGE_SIZE, PAGE_SIZE).time == \
            twin.post_read(PAGE_SIZE, PAGE_SIZE).time

    def test_slot_allocation(self):
        node = MemoryNode(4 * PAGE_SIZE)
        slots = [node.alloc_slot() for _ in range(4)]
        assert len(set(slots)) == 4
        with pytest.raises(OutOfMemoryError):
            node.alloc_slot()
        node.free_slot(slots[0])
        assert node.free_slots == 1

    def test_slot_offsets_disjoint(self):
        node = MemoryNode(4 * PAGE_SIZE)
        a, b = node.alloc_slot(), node.alloc_slot()
        offs = {node.slot_offset(a), node.slot_offset(b)}
        assert len(offs) == 2
        for off in offs:
            assert off % PAGE_SIZE == 0

    def test_double_free_rejected(self):
        node = MemoryNode(4 * PAGE_SIZE)
        slot = node.alloc_slot()
        node.free_slot(slot)
        with pytest.raises(ValueError):
            node.free_slot(slot)
        assert node.free_slots == 4

    def test_free_of_never_allocated_slot_rejected(self):
        node = MemoryNode(4 * PAGE_SIZE)
        node.alloc_slot()
        with pytest.raises(ValueError):
            node.free_slot(3)  # in range, but still on the free list

    def test_double_free_cannot_alias_two_pages(self):
        """The original bug: a double free put the slot on the free list
        twice, so two later allocations shared one remote frame."""
        node = MemoryNode(4 * PAGE_SIZE)
        slots = [node.alloc_slot() for _ in range(4)]
        node.free_slot(slots[0])
        with pytest.raises(ValueError):
            node.free_slot(slots[0])
        a = node.alloc_slot()
        with pytest.raises(OutOfMemoryError):
            node.alloc_slot()  # the free list holds no phantom duplicate
        assert a == slots[0]

    def test_free_slot_still_bounds_checked(self):
        node = MemoryNode(4 * PAGE_SIZE)
        with pytest.raises(ValueError):
            node.free_slot(-1)
        with pytest.raises(ValueError):
            node.free_slot(4)

    def test_failure_injection(self):
        import pytest as _pytest
        from repro.mem.remote import NodeFailedError
        node = MemoryNode(4 * PAGE_SIZE, name="m0")
        node.write_bytes(0, b"alive")
        node.fail()
        assert node.failed
        with _pytest.raises(NodeFailedError):
            node.read_bytes(0, 5)
        with _pytest.raises(NodeFailedError):
            node.write_bytes(0, b"x")
        node.recover()
        assert node.read_bytes(0, 5) == b"alive"


class _ListSlotAllocator:
    """Reference model: the allocator MemoryNode used to build at boot, a
    descending list of every slot (pop from the end) plus a free flag per
    slot."""

    def __init__(self, total_slots):
        self.total_slots = total_slots
        self.free = list(range(total_slots - 1, -1, -1))
        self.is_free = bytearray(b"\x01" * total_slots)

    @property
    def free_slots(self):
        return len(self.free)

    def alloc_slot(self):
        if not self.free:
            raise OutOfMemoryError("memory node exhausted")
        slot = self.free.pop()
        self.is_free[slot] = 0
        return slot

    def free_slot(self, pfn):
        if not 0 <= pfn < self.total_slots:
            raise ValueError(f"remote pfn {pfn} out of range")
        if self.is_free[pfn]:
            raise ValueError(f"remote pfn {pfn} is not allocated")
        self.is_free[pfn] = 1
        self.free.append(pfn)


def _outcome(call, *args):
    try:
        return call(*args)
    except (OutOfMemoryError, ValueError) as exc:
        return type(exc)


_slot_ops = st.lists(st.one_of(
    st.just(("alloc",)),
    # Free the n-th live slot (a valid free, in varying order).
    st.tuples(st.just("free_live"), st.integers(0, 63)),
    # Free any pfn: double frees, never-allocated slots below and above
    # the bump pointer, and out-of-range pfns.
    st.tuples(st.just("free_any"), st.integers(-1, 17)),
), max_size=80)


class TestSlotAllocatorContract:
    """The bump-pointer node allocator against the list it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 16), _slot_ops)
    def test_matches_the_list_allocator(self, total_slots, ops):
        node = MemoryNode(total_slots * PAGE_SIZE)
        ref = _ListSlotAllocator(total_slots)
        live = []
        for op in ops:
            if op[0] == "alloc":
                got = _outcome(node.alloc_slot)
                assert got == _outcome(ref.alloc_slot), op
                if got is OutOfMemoryError:
                    assert len(live) == total_slots
                else:
                    assert got not in live
                    live.append(got)
            else:
                if op[0] == "free_live":
                    if not live:
                        continue
                    pfn = live[op[1] % len(live)]
                else:
                    pfn = op[1]
                got = _outcome(node.free_slot, pfn)
                assert got == _outcome(ref.free_slot, pfn), op
                if pfn in live:
                    assert got is None
                    live.remove(pfn)
                else:
                    assert got is ValueError
            assert node.free_slots == ref.free_slots == \
                total_slots - len(live)

    def test_boot_does_no_per_slot_work(self):
        """A 1 GiB node (262,144 slots) boots with under 1 MiB of Python
        heap: its allocation map is one byte per slot, not a list."""
        tracemalloc.start()
        try:
            node = MemoryNode(1 * GIB)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert node.free_slots == node.total_slots == GIB // PAGE_SIZE
        assert peak < 1 * MIB


def _write_in_child(node):
    node.write_bytes(0, b"child")
    raise SystemExit(0 if node.read_bytes(0, 5) == b"child" else 1)


class TestMemoryNodeStore:
    """The store behaves like calloc'd memory that fork copies on write."""

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="needs /proc")
    def test_large_node_boots_without_committing_its_capacity(self):
        def resident_bytes():
            with open("/proc/self/statm") as fh:
                return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

        before = resident_bytes()
        node = MemoryNode(1 * GIB)
        # The slot allocation map (one byte per slot, 256 KiB) is the only
        # per-capacity growth.
        assert resident_bytes() - before < 16 * MIB
        assert node.capacity == 1 * GIB

    def test_reads_zeros_at_first_and_last_page(self):
        node = MemoryNode(1 * GIB)
        assert node.read_bytes(0, PAGE_SIZE) == bytes(PAGE_SIZE)
        assert node.read_bytes(1 * GIB - PAGE_SIZE, PAGE_SIZE) == \
            bytes(PAGE_SIZE)

    def test_write_at_last_byte_round_trips(self):
        node = MemoryNode(1 * GIB)
        node.write_bytes(1 * GIB - 1, b"\xff")
        assert node.read_bytes(1 * GIB - 2, 2) == b"\x00\xff"

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method")
    def test_fork_child_write_is_not_visible_in_parent(self):
        node = MemoryNode(64 * KIB)
        child = multiprocessing.get_context("fork").Process(
            target=_write_in_child, args=(node,))
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0
        assert node.read_bytes(0, 5) == bytes(5)
