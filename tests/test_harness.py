"""Unit tests for the experiment harness and report formatting."""

import pytest

from repro.common.units import MIB
from repro.baselines.aifm import AifmRuntime
from repro.baselines.fastswap import FastswapSystem
from repro.core import DilosSystem
from repro.harness import (
    Measurement,
    format_table,
    local_bytes_for,
    make_system,
    ratio_table,
    sweep_ratios,
)
from repro.apps.llm import PdSweepRunner
from repro.harness.experiment import pick
from repro.harness.figures import run_figure


class TestFactories:
    def test_all_kinds_boot(self):
        assert isinstance(make_system("fastswap", 2 * MIB), FastswapSystem)
        assert isinstance(make_system("dilos-none", 2 * MIB), DilosSystem)
        assert isinstance(make_system("dilos-trend", 2 * MIB), DilosSystem)
        assert isinstance(make_system("aifm", 2 * MIB), AifmRuntime)

    def test_dilos_flavors(self):
        assert make_system("dilos-readahead", 2 * MIB).config.prefetcher == \
            "readahead"
        tcp = make_system("dilos-tcp", 2 * MIB)
        assert tcp.config.tcp_emulation
        assert tcp.name == "DiLOS-TCP"
        assert make_system("aifm-rdma", 2 * MIB).config.transport == "rdma"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_system("linux", 2 * MIB)

    def test_local_bytes_scaling(self):
        assert local_bytes_for(100 * MIB, 0.125) == int(12.5 * MIB)
        # 100% gets watermark headroom.
        assert local_bytes_for(100 * MIB, 1.0) > 100 * MIB
        # Tiny footprints hit the floor.
        assert local_bytes_for(100, 0.125) >= 64 * 1024

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError):
            local_bytes_for(MIB, 0.0)


class TestSweep:
    def test_grid_covered(self):
        runs = []

        def runner(kind, ratio, backend):
            runs.append((kind, ratio, backend))
            return Measurement("", "", 0.0, value=1.0, unit="x")

        out = sweep_ratios("wl", runner, ["fastswap", "dilos-none"],
                           ratios=[0.5, 1.0])
        assert len(out) == 4
        assert ("fastswap", 0.5, "node") in runs
        assert out[0].workload == "wl"
        # Without a backend every cell boots on, and is stamped with, the
        # single default node.
        assert all(m.extra["backend"] == "node" for m in out)

    def test_pick(self):
        ms = [Measurement("a", "w", 0.5, 1.0, "x"),
              Measurement("a", "w", 1.0, 2.0, "x")]
        assert pick(ms, "a", 1.0).value == 2.0
        with pytest.raises(LookupError):
            pick(ms, "b")


def _kmeans_grid(jobs):
    return run_figure("fig7b", systems=["fastswap", "dilos-readahead"],
                      ratios=[0.5, 1.0], size=1 << 12, jobs=jobs)


def _llm_grid(jobs):
    return sweep_ratios("llm", PdSweepRunner("dilos-readahead", n_requests=6),
                        ["2:2", "1:3"], [0.25, 1.0], backend="sharded:2",
                        jobs=jobs)


class TestFanOut:
    """``--jobs`` fan-out (:mod:`repro.harness.parallel`) must merge
    results byte-identical to the serial run, in grid order."""

    @pytest.mark.slow
    @pytest.mark.parametrize("grid", [_kmeans_grid, _llm_grid],
                             ids=["kmeans", "llm"])
    def test_sweep_jobs_matches_serial(self, grid):
        def cells(jobs):
            return [(m.system, m.ratio, m.value, m.extra)
                    for m in grid(jobs)]

        assert cells(2) == cells(None)


class TestReport:
    def test_format_table_aligns(self):
        out = format_table("Title", ["sys", "val"],
                           [["fastswap", 1.234], ["dilos", 10.5]])
        lines = out.splitlines()
        assert lines[0] == "Title"
        assert "fastswap" in out
        assert "1.23" in out
        assert "10.5" in out

    def test_ratio_table_layout(self):
        ms = [Measurement("fastswap", "w", 0.125, 1.0, "GB/s"),
              Measurement("fastswap", "w", 1.0, 2.0, "GB/s"),
              Measurement("dilos-none", "w", 0.125, 3.0, "GB/s"),
              Measurement("dilos-none", "w", 1.0, 4.0, "GB/s")]
        out = ratio_table("Seq read", ms)
        assert "12.5%" in out
        assert "100%" in out
        assert "GB/s" in out
        # Missing cells render as '-'.
        ms.append(Measurement("aifm", "w", 1.0, 9.0, "GB/s"))
        out = ratio_table("Seq read", ms)
        assert "-" in out
