"""Unit tests for readahead / trend prefetchers and the PTE hit tracker."""

import pytest

from repro.common.clock import Clock
from repro.core.prefetch import (
    NoPrefetcher,
    PteHitTracker,
    ReadaheadPrefetcher,
    TrendPrefetcher,
    make_prefetcher,
)
from repro.core.prefetch.trend import majority_delta
from repro.mem import pte as pte_mod
from repro.mem.page_table import PageTable
from repro.net.latency import LatencyModel


class FakeOps:
    """Records prefetch requests; configurable hit ratio."""

    def __init__(self, hit=1.0):
        self.requests = []
        self._hit = hit

    def prefetch(self, vpn):
        self.requests.append(vpn)
        return True

    def hit_ratio(self):
        return self._hit


class TestFactory:
    def test_names(self):
        assert isinstance(make_prefetcher("none"), NoPrefetcher)
        assert isinstance(make_prefetcher("readahead"), ReadaheadPrefetcher)
        assert isinstance(make_prefetcher("trend"), TrendPrefetcher)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_prefetcher("magic")


class TestReadahead:
    def test_full_window_when_hitting(self):
        pf = ReadaheadPrefetcher(base_window=8)
        ops = FakeOps(hit=1.0)
        pf.on_major_fault(100, ops)
        assert ops.requests == [101, 102, 103, 104, 105, 106, 107]

    def test_window_shrinks_on_misses(self):
        pf = ReadaheadPrefetcher(base_window=8, min_window=2)
        ops = FakeOps(hit=0.0)
        pf.on_major_fault(100, ops)
        assert ops.requests == [101]  # floor window of 2 => 1 extra page

    def test_no_prefetcher_is_silent(self):
        ops = FakeOps()
        NoPrefetcher().on_major_fault(5, ops)
        assert ops.requests == []


class TestMajorityDelta:
    def test_empty(self):
        assert majority_delta([]) is None

    def test_clear_majority(self):
        assert majority_delta([1, 1, 2, 1, 1]) == 1

    def test_no_majority(self):
        assert majority_delta([1, 2, 3, 4]) is None

    def test_exact_half_is_not_majority(self):
        assert majority_delta([1, 1, 2, 2]) is None


class TestTrend:
    def test_detects_forward_stride(self):
        pf = TrendPrefetcher(history=16, max_window=4)
        ops = FakeOps()
        for vpn in range(100, 110):
            pf.on_major_fault(vpn, ops)
        assert 110 in ops.requests or 109 + 1 in ops.requests

    def test_detects_strided_pattern(self):
        pf = TrendPrefetcher(history=16, max_window=4)
        ops = FakeOps()
        for vpn in range(0, 64, 4):
            pf.on_major_fault(vpn, ops)
        # Last fault at 60 with stride 4 -> prefetch 64, 68, 72.
        assert ops.requests[-3:] == [64, 68, 72]

    def test_detects_backward_stride(self):
        pf = TrendPrefetcher(history=16, max_window=2)
        ops = FakeOps()
        for vpn in range(1000, 900, -2):
            pf.on_major_fault(vpn, ops)
        assert ops.requests[-1] == 900  # 902 - 2

    def test_silent_on_random_access(self):
        pf = TrendPrefetcher(history=16, max_window=4)
        ops = FakeOps()
        import random
        rng = random.Random(7)
        for _ in range(50):
            pf.on_major_fault(rng.randrange(1 << 20), ops)
        assert len(ops.requests) <= 2  # accidental ties only

    def test_needs_min_samples(self):
        pf = TrendPrefetcher()
        ops = FakeOps()
        for vpn in [1, 2, 3]:
            pf.on_major_fault(vpn, ops)
        assert ops.requests == []


class TestHitTracker:
    def make(self):
        clock = Clock()
        pt = PageTable()
        tracker = PteHitTracker(clock, pt, LatencyModel())
        return clock, pt, tracker

    def test_accessed_counts_as_hit(self):
        clock, pt, tracker = self.make()
        pt.set(5, pte_mod.make_local(1, accessed=True))
        tracker.note_installed(5)
        tracker.scan()
        assert tracker.hits == 1
        assert tracker.misses == 0

    def test_young_unaccessed_not_judged(self):
        clock, pt, tracker = self.make()
        pt.set(5, pte_mod.make_local(1))
        tracker.note_installed(5)
        tracker.scan()
        assert tracker.hits == tracker.misses == 0

    def test_matured_unaccessed_is_miss(self):
        clock, pt, tracker = self.make()
        pt.set(5, pte_mod.make_local(1))
        tracker.note_installed(5)
        clock.advance(PteHitTracker.GRACE_US + 1)
        tracker.scan()
        assert tracker.misses == 1

    def test_hit_ratio_moves_with_evidence(self):
        clock, pt, tracker = self.make()
        start = tracker.hit_ratio()
        for vpn in range(20):
            pt.set(vpn, pte_mod.make_local(1))
            tracker.note_installed(vpn)
        clock.advance(PteHitTracker.GRACE_US + 1)
        tracker.scan(budget=100)
        assert tracker.hit_ratio() < start * 0.3

    def test_scan_charges_time(self):
        clock, pt, tracker = self.make()
        pt.set(1, pte_mod.make_local(1, accessed=True))
        tracker.note_installed(1)
        before = clock.now
        tracker.scan()
        assert clock.now > before
