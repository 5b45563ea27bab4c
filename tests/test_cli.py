"""Tests for the ``python -m repro`` command-line runner."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["levitate"])

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["seqrw", "--system", "windows"])

    def test_defaults(self):
        args = build_parser().parse_args(["seqrw"])
        assert args.system == "dilos-readahead"
        assert args.ratio == 0.125
        assert args.mode == "read"


class TestCommands:
    def test_systems(self, capsys):
        assert main(["systems"]) == 0
        out = capsys.readouterr().out
        assert "fastswap" in out
        assert "dilos-readahead" in out

    def test_seqrw(self, capsys):
        assert main(["seqrw", "--ws-mib", "2"]) == 0
        out = capsys.readouterr().out
        assert "GB/s" in out
        assert "fault.major" in out

    def test_seqrw_on_fastswap(self, capsys):
        assert main(["seqrw", "--ws-mib", "2", "--system", "fastswap",
                     "--mode", "write"]) == 0
        assert "Fastswap" in capsys.readouterr().out

    def test_quicksort(self, capsys):
        assert main(["quicksort", "--count", "8192"]) == 0
        assert "sorted" in capsys.readouterr().out

    def test_kmeans(self, capsys):
        assert main(["kmeans", "--points", "4096"]) == 0
        assert "inertia" in capsys.readouterr().out

    def test_snappy_aifm(self, capsys):
        assert main(["snappy", "--system", "aifm", "--mode",
                     "decompress"]) == 0
        assert "snappy decompress" in capsys.readouterr().out

    def test_taxi(self, capsys):
        assert main(["taxi", "--rows", "8192"]) == 0
        out = capsys.readouterr().out
        assert "mean_fare" in out

    def test_pagerank(self, capsys):
        assert main(["pagerank", "--nodes", "1024", "--edges", "8000"]) == 0
        assert "top vertex" in capsys.readouterr().out

    def test_bc_with_guide(self, capsys):
        assert main(["bc", "--nodes", "1024", "--edges", "8000",
                     "--guide"]) == 0
        assert "app-aware guide" in capsys.readouterr().out

    def test_bc_guide_requires_dilos(self, capsys):
        assert main(["bc", "--nodes", "1024", "--edges", "8000",
                     "--guide", "--system", "fastswap"]) == 2

    def test_redis_get(self, capsys):
        assert main(["redis-get", "--value-size", "4096", "--keys", "100",
                     "--queries", "100"]) == 0
        assert "req/s" in capsys.readouterr().out

    @pytest.mark.parametrize("faults", [
        [], ["--net-faults", "drop=0.01,seed=3"],
    ], ids=["perfect", "lossy"])
    def test_redis_lrange_app_aware(self, capsys, faults):
        # On a lossy wire the guide's subpage reads ride the reliable
        # transport, whose completion callback they need.
        assert main(["redis-lrange", "--queries", "100",
                     "--app-aware"] + faults) == 0
        assert "req/s" in capsys.readouterr().out

    def test_redis_app_aware_requires_dilos(self, capsys):
        assert main(["redis-get", "--system", "fastswap",
                     "--app-aware"]) == 2

    def test_repair_lifecycle(self, capsys):
        assert main(["repair", "--backend", "replicated:2"]) == 0
        out = capsys.readouterr().out
        assert "repair lifecycle" in out
        assert "repair.pages_resilvered" in out
        assert "metrics digest" in out

    def test_repair_rejects_non_redundant_backend(self, capsys):
        assert main(["repair", "--backend", "sharded:2"]) == 2
        assert "redundant" in capsys.readouterr().err

    def test_kv_failover_preset(self, capsys):
        assert main(["kv", "--requests", "300", "--once"]) == 0
        out = capsys.readouterr().out
        assert "availability / consistency" in out
        assert "0 lost updates" in out
        assert "failovers" in out
        assert "metrics digest" in out

    def test_kv_determinism_gate(self, capsys):
        assert main(["kv", "--requests", "200"]) == 0
        assert "determinism: OK" in capsys.readouterr().out

    def test_kv_rejects_non_redundant_backend(self, capsys):
        assert main(["kv", "--backend", "sharded:2", "--once"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("rejoin_at", ["800", "900"])
    def test_kv_rejects_rejoin_not_after_kill(self, capsys, rejoin_at):
        # A rejoin at or before the kill would "rejoin" a live member,
        # which then dies for good and is never resilvered.
        assert main(["kv", "--kill-at", "900", "--rejoin-at", rejoin_at,
                     "--once"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestLlmCommands:
    def test_llm_single_node(self, capsys):
        assert main(["llm", "--requests", "3"]) == 0
        out = capsys.readouterr().out
        assert "tokens decoded" in out
        assert "token digest:" in out
        assert "mean TTFT" in out

    def test_llm_pd_mode(self, capsys):
        assert main(["llm", "--requests", "4", "--pd-split", "1:1"]) == 0
        out = capsys.readouterr().out
        assert "P:D 1:1" in out
        assert "KV transferred" in out
        assert "per-tenant" in out

    def test_llm_pd_rejects_aifm(self, capsys):
        assert main(["llm", "--system", "aifm", "--pd-split", "1:1"]) == 2
        assert "AIFM" in capsys.readouterr().err

    def test_llm_sweep_tiny_grid(self, capsys):
        assert main(["sweep", "llm", "--systems", "dilos-readahead",
                     "--pd-splits", "1:1", "--ratios", "1.0",
                     "--size", "3"]) == 0
        out = capsys.readouterr().out
        assert "best P:D split per local-memory ratio" in out

    # The sweep's grid validation must run before any --jobs pool
    # worker spawns: a SystemExit inside a worker hangs the map, so
    # every bad configuration has to die up front with exit 2.

    def test_llm_sweep_rejects_aifm_up_front(self, capsys):
        assert main(["sweep", "llm", "--systems", "aifm-rdma",
                     "--jobs", "2"]) == 2
        assert "AIFM tenants cannot join" in capsys.readouterr().err

    def test_llm_sweep_rejects_multiple_kernels(self, capsys):
        assert main(["sweep", "llm", "--systems", "dilos-readahead",
                     "fastswap"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_llm_sweep_rejects_malformed_split(self, capsys):
        assert main(["sweep", "llm", "--systems", "dilos-readahead",
                     "--pd-splits", "3-1"]) == 2
        assert "bad P:D split" in capsys.readouterr().err

    def test_pd_splits_rejected_for_other_workloads(self, capsys):
        assert main(["sweep", "quicksort", "--pd-splits", "1:1"]) == 2
        assert "only applies to the llm sweep" in capsys.readouterr().err

    def test_llm_sweep_defaults_to_one_kernel(self, capsys):
        """Without --systems the llm grid takes its own one-kernel
        default, not the ratio sweeps' pair."""
        assert main(["sweep", "llm", "--pd-splits", "1:1", "--ratios",
                     "1.0", "--size", "3"]) == 0
        assert "on dilos-readahead" in capsys.readouterr().out

    def test_rack_sweep_rejects_two_explicit_kernels(self, capsys):
        """An explicit --systems pair is refused, even when it equals the
        ratio sweeps' default."""
        assert main(["sweep", "rack", "--systems", "fastswap",
                     "dilos-readahead"]) == 2
        assert "exactly one" in capsys.readouterr().err
