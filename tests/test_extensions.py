"""Tests for the extension features: stride prefetcher, media profiles,
and the BC frontier guide."""

import pytest

from repro.common.units import MIB, PAGE_SIZE
from repro.core import DilosConfig, DilosSystem
from repro.core.prefetch import StridePrefetcher, make_prefetcher
from repro.harness import local_bytes_for, make_system
from repro.net.media import MEDIA_PROFILES, hdd, nvme_flash, rdma_100g, sata_ssd
from repro.apps.gapbs import (
    BcFrontierGuide,
    BetweennessWorkload,
    CsrGraph,
    generate_power_law_graph,
)


class FakeOps:
    def __init__(self, hit=1.0):
        self.requests = []
        self._hit = hit

    def prefetch(self, vpn):
        self.requests.append(vpn)
        return True

    def hit_ratio(self):
        return self._hit


class TestStridePrefetcher:
    def test_registered_in_factory(self):
        assert isinstance(make_prefetcher("stride"), StridePrefetcher)

    def test_single_forward_stream(self):
        pf = StridePrefetcher(max_window=4)
        ops = FakeOps()
        for vpn in (100, 101, 102, 103):
            pf.on_major_fault(vpn, ops)
        assert 104 in ops.requests

    def test_two_interleaved_streams(self):
        """The pattern trend-based cannot handle: partition-style access
        from both ends of an array."""
        pf = StridePrefetcher(max_window=2)
        ops = FakeOps()
        low = list(range(0, 8))
        high = list(range(10_000, 10_000 - 8, -1))
        for a, b in zip(low, high):
            pf.on_major_fault(a, ops)
            pf.on_major_fault(b, ops)
        assert low[-1] + 1 in ops.requests       # forward stream predicted
        assert high[-1] - 1 in ops.requests      # backward stream predicted

    def test_trend_mispredicts_interleaved_streams(self):
        """Contrast: the majority vote over alternating deltas never
        predicts either stream's true next page."""
        from repro.core.prefetch import TrendPrefetcher
        pf = TrendPrefetcher(max_window=4)
        ops = FakeOps()
        for a, b in zip(range(0, 12), range(10_000, 10_012)):
            pf.on_major_fault(a, ops)
            pf.on_major_fault(b, ops)
        assert 12 not in ops.requests       # next of the low stream
        assert 10_012 not in ops.requests   # next of the high stream

    def test_no_prefetch_before_confidence(self):
        pf = StridePrefetcher()
        ops = FakeOps()
        pf.on_major_fault(10, ops)
        pf.on_major_fault(12, ops)  # stride learned, confidence 1
        assert ops.requests == []

    def test_stream_table_eviction(self):
        pf = StridePrefetcher(max_streams=2)
        ops = FakeOps()
        for base in (0, 1000, 2000, 3000):
            pf.on_major_fault(base, ops)
        assert len(pf._streams) == 2

    def test_random_access_is_quiet(self):
        import random
        rng = random.Random(9)
        pf = StridePrefetcher()
        ops = FakeOps()
        for _ in range(100):
            pf.on_major_fault(rng.randrange(1 << 24), ops)
        assert len(ops.requests) < 10

    def test_end_to_end_on_dilos(self):
        system = DilosSystem(DilosConfig(local_mem_bytes=1 * MIB,
                                         remote_mem_bytes=32 * MIB,
                                         prefetcher="stride"))
        region = system.mmap(4 * MIB)
        pages = region.size // PAGE_SIZE
        for i in range(pages):
            system.memory.write(region.base + i * PAGE_SIZE, b"s" * 32)
        for i in range(pages):
            system.memory.read(region.base + i * PAGE_SIZE, 32)
        m = system.metrics()
        assert m.value("prefetch.issued") > 0
        assert m.value("fault.major") < pages


class TestMediaProfiles:
    def test_profiles_ordered_by_speed(self):
        lat = {name: factory().rdma_read_latency(PAGE_SIZE)
               for name, factory in MEDIA_PROFILES.items()}
        assert lat["rdma-100g"] < lat["nvme-flash"] < lat["sata-ssd"] < lat["hdd"]

    def test_software_costs_unchanged(self):
        base = rdma_100g()
        for factory in (nvme_flash, sata_ssd, hdd):
            profile = factory()
            assert profile.hw_exception == base.hw_exception
            assert profile.fastswap_minor_fault == base.fastswap_minor_fault
            assert profile.dilos_map == base.dilos_map

    def test_dilos_runs_on_nvme(self):
        system = make_system("dilos-readahead", 1 * MIB,
                             latency=nvme_flash())
        region = system.mmap(4 * MIB)
        pages = region.size // PAGE_SIZE
        for i in range(pages):
            system.memory.write(region.base + i * PAGE_SIZE,
                                bytes([i % 251]) * 32)
        for i in range(pages):
            assert system.memory.read(region.base + i * PAGE_SIZE, 32) == \
                bytes([i % 251]) * 32


class TestBcFrontierGuide:
    @staticmethod
    def setup_run(use_guide):
        offsets, edges = generate_power_law_graph(n=4096, target_m=50_000,
                                                  seed=5)
        footprint = (len(offsets) + len(edges)) * 8
        system = make_system("dilos-readahead",
                             local_bytes_for(footprint, 0.125))
        graph = CsrGraph(system, offsets, edges)
        guide = None
        if use_guide:
            guide = BcFrontierGuide(graph)
            guide.bind(system)
        workload = BetweennessWorkload(n_sources=2)
        result = workload.run(system, graph,
                              sources=workload.pick_sources(graph),
                              guide=guide)
        return result, guide

    def test_guide_speeds_up_bc(self):
        baseline, _ = self.setup_run(use_guide=False)
        guided, guide = self.setup_run(use_guide=True)
        assert guide.vertices_chased > 0
        assert guide.edge_pages_prefetched > 0
        assert guided.elapsed_us < 0.9 * baseline.elapsed_us

    def test_guide_preserves_result(self):
        baseline, _ = self.setup_run(use_guide=False)
        guided, _ = self.setup_run(use_guide=True)
        assert guided.top_vertex == baseline.top_vertex

    def test_unbound_guide_rejected(self):
        offsets, edges = generate_power_law_graph(n=256, target_m=1000)
        system = make_system("dilos-none", 1 * MIB)
        guide = BcFrontierGuide(CsrGraph(system, offsets, edges))
        with pytest.raises(RuntimeError):
            guide.on_frontier([1, 2, 3])


class TestPatternWorkload:
    def test_unknown_pattern_rejected(self):
        from repro.apps.patterns import PatternWorkload
        with pytest.raises(ValueError):
            PatternWorkload("spiral")

    def test_patterns_cover_all_pages_where_expected(self):
        import random
        from repro.apps.patterns import PATTERNS
        rng = random.Random(1)
        for name in ("sequential", "reverse", "interleaved"):
            order = PATTERNS[name](64, rng)
            assert sorted(order) == list(range(64)), name

    def test_strided_skips(self):
        import random
        from repro.apps.patterns import strided
        order = strided(64, random.Random(1), stride=4)
        assert order == list(range(0, 64, 4))

    def test_pattern_run_verifies_data(self):
        from repro.apps.patterns import PatternWorkload
        workload = PatternWorkload("random", working_set_bytes=1 * MIB)
        system = make_system("dilos-trend",
                             local_bytes_for(workload.footprint_bytes, 0.25))
        result = workload.run(system)
        assert result.accesses == 256
        assert result.us_per_access > 0
