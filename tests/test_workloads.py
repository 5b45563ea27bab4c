"""Integration tests for the §6.2 workloads: correctness of results and
the paper's qualitative performance orderings at small scale."""

import numpy as np
import pytest

from repro.common.units import MIB
from repro.harness import local_bytes_for, make_system
from repro.apps.seqrw import SequentialWorkload
from repro.apps.quicksort import QuicksortWorkload
from repro.apps.kmeans import KMeansWorkload
from repro.apps.snappy import (
    SnappyWorkload,
    compress_block,
    decompress_block,
    generate_loglike,
)
from repro.apps.dataframe import TaxiAnalyticsWorkload, generate_taxi
from repro.apps.gapbs import (
    BetweennessWorkload,
    CsrGraph,
    PageRankWorkload,
    generate_power_law_graph,
)


def boot(kind, workload, ratio):
    return make_system(kind, local_bytes_for(workload.footprint_bytes, ratio))


class TestSequential:
    def test_read_verifies(self):
        wl = SequentialWorkload(4 * MIB)
        result = wl.run(boot("dilos-readahead", wl, 0.125), "read", verify=True)
        assert result.gb_per_s > 0.5

    def test_bad_mode_rejected(self):
        wl = SequentialWorkload(1 * MIB)
        with pytest.raises(ValueError):
            wl.run(boot("dilos-none", wl, 1.0), "flush")


class TestQuicksort:
    def test_sorts_correctly_on_both_systems(self):
        for kind in ("dilos-readahead", "fastswap"):
            wl = QuicksortWorkload(count=1 << 14)
            result = wl.run(boot(kind, wl, 0.25), verify=True)
            assert result.elapsed_us > 0

    def test_sorts_with_duplicates(self):
        wl = QuicksortWorkload(count=1 << 13, seed=5)
        system = boot("dilos-none", wl, 1.0)
        # Force massive duplication by seeding a tiny value range.
        from repro.apps.views import PagedArray
        arr = PagedArray(system, wl.count, np.int64, name="qsort-data")
        scratch = PagedArray(system, wl.count, np.int64, name="qsort-scratch")
        rng = np.random.default_rng(5)
        for start, stop in arr.chunks():
            arr.store(start, rng.integers(0, 3, stop - start, dtype=np.int64))
        wl._quicksort(system, arr, scratch)
        values = arr.load(0, wl.count)
        assert np.array_equal(values, np.sort(values))

    def test_memory_pressure_slows_completion(self):
        wl = QuicksortWorkload(count=1 << 14)
        tight = wl.run(boot("dilos-readahead", wl, 0.125)).elapsed_us
        roomy = wl.run(boot("dilos-readahead", wl, 1.0)).elapsed_us
        assert tight > roomy


class TestKMeans:
    def test_converges_to_real_clusters(self):
        wl = KMeansWorkload(n_points=4096, iterations=6)
        result = wl.run(boot("dilos-readahead", wl, 1.0))
        # Inertia of a converged fit: far below the random-assignment level.
        per_point = result.inertia / wl.n_points
        assert per_point < 3 * wl.dim  # ~unit noise per dimension

    def test_dilos_beats_fastswap_under_pressure(self):
        """The Figure 7(b) headline at 12.5% local memory."""
        times = {}
        for kind in ("fastswap", "dilos-readahead"):
            wl = KMeansWorkload(n_points=1 << 14, iterations=3)
            times[kind] = wl.run(boot(kind, wl, 0.125)).elapsed_us
        assert times["dilos-readahead"] < times["fastswap"]


class TestSnappyCodec:
    def test_roundtrip_loglike(self):
        blob = generate_loglike(50_000, 1)
        assert decompress_block(compress_block(blob)) == blob

    def test_roundtrip_random(self):
        rng = np.random.default_rng(2)
        blob = rng.integers(0, 256, 10_000, dtype=np.uint8).tobytes()
        assert decompress_block(compress_block(blob)) == blob

    def test_roundtrip_pathological(self):
        for blob in [b"", b"a", b"a" * 100_000, b"ab" * 500,
                     bytes(range(256)) * 4]:
            assert decompress_block(compress_block(blob)) == blob

    def test_compresses_runs(self):
        blob = generate_loglike(100_000, 3)
        assert len(compress_block(blob)) < 0.5 * len(blob)

    def test_corrupt_stream_rejected(self):
        with pytest.raises(ValueError):
            decompress_block(b"\x07\x01\x00x")


class TestSnappyWorkload:
    def test_compress_verifies_on_paging(self):
        wl = SnappyWorkload(n_files=2, file_bytes=128 * 1024)
        result = wl.run_compress(boot("dilos-readahead", wl, 0.25), verify=True)
        assert result.output_bytes < result.input_bytes

    def test_decompress_verifies_on_paging(self):
        wl = SnappyWorkload(n_files=2, file_bytes=128 * 1024)
        result = wl.run_decompress(boot("fastswap", wl, 0.25), verify=True)
        assert result.input_bytes == 2 * 128 * 1024

    def test_aifm_ports_verify(self):
        wl = SnappyWorkload(n_files=2, file_bytes=128 * 1024)
        wl.run_compress_aifm(boot("aifm", wl, 0.25), verify=True)
        wl.run_decompress_aifm(boot("aifm", wl, 0.25), verify=True)


class TestDataFrame:
    def test_operators_match_numpy(self):
        system = make_system("dilos-none", 8 * MIB)
        df = generate_taxi(system, rows=5000)
        fares = np.concatenate([df.column("fare").load(s, e)
                                for s, e in df.column("fare").chunks()])
        assert df.mean("fare") == pytest.approx(fares.mean())
        assert df.max("fare") == pytest.approx(fares.max())
        assert df.filter_count("fare", lambda f: f > 10.0) == (fares > 10).sum()

    def test_derive_and_covariance(self):
        system = make_system("dilos-none", 8 * MIB)
        df = generate_taxi(system, rows=4000)
        df.derive("duration", ["dropoff_ts", "pickup_ts"],
                  lambda d, p: d - p, dtype=np.int64)
        durations = df.column("duration").load(0, 4000)
        assert (durations > 0).all()
        cov = df.covariance("trip_distance", "fare")
        assert cov > 0  # fares rise with distance by construction

    def test_aifm_answers_match_paging(self):
        wl = TaxiAnalyticsWorkload(rows=1 << 13)
        paging = wl.run(boot("dilos-readahead", wl, 0.5))
        aifm = wl.run_aifm(boot("aifm", wl, 0.5))
        for key, value in paging.answers.items():
            assert aifm.answers[key] == pytest.approx(value, rel=1e-9), key

    def test_aifm_slower_at_full_memory(self):
        """Figure 8 at 100%: deref checks cost AIFM 50-83%."""
        wl = TaxiAnalyticsWorkload(rows=1 << 13)
        paging = wl.run(boot("dilos-readahead", wl, 1.0)).elapsed_us
        aifm = wl.run_aifm(boot("aifm", wl, 1.0)).elapsed_us
        assert aifm > 1.2 * paging


class TestGapbs:
    @staticmethod
    def small_graph():
        return generate_power_law_graph(n=2048, target_m=20_000, seed=7)

    def test_generator_is_valid_csr(self):
        offsets, edges = self.small_graph()
        assert offsets[0] == 0
        assert offsets[-1] == len(edges)
        assert (np.diff(offsets) >= 0).all()
        assert edges.min() >= 0
        assert edges.max() < 2048

    def test_generator_power_law_tail(self):
        offsets, _ = self.small_graph()
        degrees = np.diff(offsets)
        assert degrees.max() > 20 * np.median(degrees)

    def test_pagerank_deterministic_across_systems(self):
        offsets, edges = self.small_graph()
        tops = set()
        for kind in ("fastswap", "dilos-readahead"):
            system = make_system(kind, 2 * MIB)
            graph = CsrGraph(system, offsets, edges)
            tops.add(PageRankWorkload(iterations=3).run(system, graph).top_vertex)
        assert len(tops) == 1

    def test_pagerank_finds_hub(self):
        offsets, edges = self.small_graph()
        system = make_system("dilos-readahead", 8 * MIB)
        graph = CsrGraph(system, offsets, edges)
        result = PageRankWorkload(iterations=5).run(system, graph)
        # Destinations are Zipf over ids: low ids are the hubs.
        assert result.top_vertex < 20

    def test_bc_matches_networkx(self):
        import networkx as nx
        offsets, edges = generate_power_law_graph(n=120, target_m=400, seed=9)
        system = make_system("dilos-none", 8 * MIB)
        graph = CsrGraph(system, offsets, edges)
        source = 0
        wl = BetweennessWorkload(n_sources=1)
        ours = wl.run(system, graph, sources=[source])
        g = nx.DiGraph()
        g.add_nodes_from(range(120))
        for u in range(120):
            for v in edges[offsets[u]:offsets[u + 1]]:
                g.add_edge(u, int(v))
        # Single-source Brandes equals nx betweenness restricted to s.
        sigma_nx = nx.betweenness_centrality_subset(
            g, sources=[source], targets=list(range(120)), normalized=False)
        # Compare the top vertex rather than raw floats (ties possible).
        top_nx = max(sigma_nx, key=lambda v: sigma_nx[v])
        assert ours.top_vertex == top_nx or \
            sigma_nx[ours.top_vertex] == pytest.approx(sigma_nx[top_nx])

    def test_graph_neighbors_roundtrip(self):
        offsets, edges = self.small_graph()
        system = make_system("dilos-readahead", 1 * MIB)
        graph = CsrGraph(system, offsets, edges)
        for u in (0, 100, 2047):
            expect = edges[offsets[u]:offsets[u + 1]]
            assert np.array_equal(graph.neighbors(u), expect)

    def test_scan_vertices_covers_all_edges(self):
        offsets, edges = self.small_graph()
        system = make_system("dilos-readahead", 8 * MIB)
        graph = CsrGraph(system, offsets, edges)
        seen = 0
        for _u, neighbors in graph.scan_vertices():
            seen += len(neighbors)
        assert seen == len(edges)

