"""Tests for the ``python -m repro`` command-line runner."""

import argparse
import json
import re

import pytest

from repro.cli import build_parser, main
from repro.harness.figures import FIGURES
from repro.harness.results import load_json
from repro.harness.scenarios import SCENARIOS, Scenario, kv_failover
from repro.obs import validate_chrome_trace
from tests.test_golden_master import GOLDEN, TRACE_DIGESTS

#: figure id -> (system, --size, a row the cell's result table must
#: hold, text the output must also hold or None): one small cell per
#: figure, each on a system of its grid; the row shows the size reached
#: the figure's size parameter.
CELLS = {
    "table2-read": ("dilos-readahead", 2, r"bytes_moved\s+2097152", "GB/s"),
    "table2-write": ("fastswap", 2, r"mode\s+write", None),
    "fig7a": ("dilos-none", 8192, r"count\s+8192", None),
    "fig7b": ("dilos-trend", 4096, r"points\s+4096", "inertia"),
    "fig7c": ("dilos-tcp", 1, r"input_bytes\s+393216", None),
    "fig7d": ("aifm", 1, r"mode\s+decompress", "deref.total"),
    "fig8": ("aifm", 8192, r"rows\s+8192", "answers.mean_fare"),
    "fig9a": ("fastswap", 1024, r"n\s+1024", "top_vertex"),
    "fig9b": ("dilos-app-aware", 1024, r"sources\s+2", "top_vertex"),
    "fig10a": ("dilos-none", 100, r"queries\s+100", "req/s"),
    "fig10b": ("dilos-trend", 100, r"queries\s+100", None),
    "fig10c": ("fastswap", 100, r"queries\s+100", None),
    "fig10d": ("dilos-app-aware", 100, r"queries\s+100", None),
}


def run_cell(capsys, name, *extra):
    """Run figure ``name``'s small cell; return what it printed."""
    system, size, row, text = CELLS[name]
    assert main(["figure", name, "--systems", system, "--ratios", "0.125",
                 "--size", str(size), *extra]) == 0
    out = capsys.readouterr().out
    assert FIGURES[name].title in out
    assert f"{system} at 0.125" in out
    assert "paging counters" in out
    assert re.search(f"^{row}$", out, re.MULTILINE), row
    assert text is None or text in out, text
    return out


def run_scenario(capsys, *argv):
    """``repro run ARGV``; returns its stdout and its report and counter
    rows as a ``{field: [value, ...]}`` dict."""
    assert main(["run", *argv]) == 0
    out = capsys.readouterr().out
    return out, {cells[0]: cells[1:]
                 for cells in map(str.split, out.splitlines()) if cells}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["levitate"])

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig7a", "--systems",
                                       "windows"])

    def test_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.figure == "table2-read"
        assert args.system == "dilos-readahead"
        assert args.ratio == 0.125
        assert args.size is None


class TestSettableSurface:
    """Every subcommand's options, pinned: a new flag shows up here as a
    reviewed edit."""

    SURFACE = {
        "systems": [],
        "figure": ["figure", "systems", "ratios", "size", "net_faults",
                   "backend", "jobs", "save"],
        "sweep": ["workload", "systems", "ratios", "pd_splits",
                  "placements", "oversubs", "size", "save", "backend",
                  "jobs"],
        "run": ["scenario", "system", "spec", "net_faults", "backend",
                "once"],
        "trace": ["system", "ratio", "net_faults", "backend", "figure",
                  "size", "capacity", "out", "jsonl"],
    }

    def test_subcommand_options(self):
        sub = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        surface = {name: [action.dest for action in parser._actions
                          if not isinstance(action, argparse._HelpAction)]
                   for name, parser in sub.choices.items()}
        assert surface == self.SURFACE
        assert len(surface) == 5
        assert sum(map(len, surface.values())) == 33


class TestCommands:
    def test_systems(self, capsys):
        assert main(["systems"]) == 0
        out = capsys.readouterr().out
        assert "fastswap" in out
        assert "dilos-readahead" in out

    def test_every_figure_has_a_cell(self):
        assert list(CELLS) == list(FIGURES)

    def test_seqrw(self, capsys):
        assert "fault.major" in run_cell(capsys, "table2-read")

    def test_seqrw_on_fastswap(self, capsys):
        run_cell(capsys, "table2-write")

    def test_quicksort(self, capsys):
        run_cell(capsys, "fig7a")

    def test_kmeans(self, capsys):
        run_cell(capsys, "fig7b")

    def test_snappy_compress(self, capsys):
        run_cell(capsys, "fig7c")

    def test_snappy_aifm(self, capsys):
        run_cell(capsys, "fig7d")

    def test_taxi(self, capsys):
        run_cell(capsys, "fig8")

    def test_pagerank(self, capsys):
        run_cell(capsys, "fig9a")

    def test_bc_with_guide(self, capsys):
        run_cell(capsys, "fig9b")

    def test_redis_get(self, capsys):
        run_cell(capsys, "fig10a")

    def test_redis_get_64k(self, capsys):
        run_cell(capsys, "fig10b")

    def test_redis_get_mixed(self, capsys):
        run_cell(capsys, "fig10c")

    @pytest.mark.parametrize("faults", [
        [], ["--net-faults", "drop=0.01,seed=3"],
    ], ids=["perfect", "lossy"])
    def test_redis_lrange_app_aware(self, capsys, faults):
        # On a lossy wire the guide's subpage reads ride the reliable
        # transport, whose completion callback they need.
        run_cell(capsys, "fig10d", *faults)

    def test_figure_list(self, capsys):
        assert main(["figure"]) == 0
        out = capsys.readouterr().out
        for name, figure in FIGURES.items():
            assert name in out
            assert figure.title in out

    def test_figure_grid_saves_json(self, capsys, tmp_path):
        path = tmp_path / "grid.json"
        assert main(["figure", "table2-read", "--systems", "fastswap",
                     "dilos-none", "--ratios", "0.125", "0.5", "--size", "1",
                     "--save", str(path)]) == 0
        out = capsys.readouterr().out
        assert "50%" in out and "dilos-none" in out
        assert "paging counters" not in out  # one-cell detail only
        rows = load_json(path)
        assert [(m.system, m.ratio) for m in rows] == [
            ("fastswap", 0.125), ("fastswap", 0.5),
            ("dilos-none", 0.125), ("dilos-none", 0.5)]
        assert rows[0].extra["result"]["mode"] == "read"
        assert rows[0].extra["metrics"]["counters"]["fault.major"] > 0

    def test_figure_cells_draw_faults_independently(self, capsys, tmp_path):
        # Every cell parses its own fault plan from the one spec, so a
        # cell's value does not depend on the cells run before it, and a
        # --jobs grid equals the serial one.
        path = tmp_path / "grid.json"

        def grid(*argv):
            assert main(["figure", "table2-read", "--size", "1",
                         "--net-faults", "drop=0.01,seed=3", "--save",
                         str(path), "--systems", *argv]) == 0
            return [m.value for m in load_json(path)]

        alone = grid("dilos-readahead")
        serial = grid("fastswap", "dilos-readahead")
        assert serial[1] == alone[0]
        assert grid("fastswap", "dilos-readahead", "--jobs", "2") == serial

    @pytest.mark.parametrize("argv", [
        ["nope"],
        ["fig7a", "--systems", "aifm"],
        ["fig9a", "--systems", "dilos-app-aware"],
        ["table2-read", "--systems", "dilos-app-aware"],
        ["table2-read", "--size", "0"],
    ], ids=["unknown-id", "no-aifm-port", "no-pagerank-guide",
            "no-seqrw-guide", "zero-size"])
    def test_figure_refusals(self, capsys, argv):
        assert main(["figure", *argv]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_trace_exports_chrome_and_jsonl(self, capsys, tmp_path):
        out_path, jsonl_path = tmp_path / "t.json", tmp_path / "t.jsonl"
        assert main(["trace", "table2-read", "--size", "2",
                     "--out", str(out_path), "--jsonl", str(jsonl_path)]) == 0
        out = capsys.readouterr().out
        assert "fault.major breakdown from" in out
        validate_chrome_trace(out_path.read_text())
        recorded = int(re.search(r"recorded (\d+) trace events", out)[1])
        written = int(re.search(r"wrote (\d+) events", out)[1])
        lines = jsonl_path.read_text().splitlines()
        assert recorded == written == len(lines) > 0
        for line in lines[:3]:
            json.loads(line)
        assert main(["trace", "table2-read", "--capacity", "0"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_repair_lifecycle(self, capsys):
        _, rows = run_scenario(capsys, "repair_demo", "--backend",
                               "parity:2+1", "--once")
        assert rows["backend"] == ["parity:2+1"]
        assert rows["verified_pages"] == rows["pages"] == ["1024"]
        assert rows["counters.repair.pages_resilvered"] == \
            rows["stale_after_degraded"]
        assert rows["counters.scrub.repaired"] == ["1"]

    def test_repair_rejects_non_redundant_backend(self, capsys):
        assert main(["run", "repair_demo", "--backend", "sharded:2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "redundant" in err

    def test_kv_failover_preset(self, capsys):
        _, rows = run_scenario(capsys, "kv_failover", "--once")
        assert rows["kv.lost_updates"] == ["0"]
        assert rows["kv.failovers"] == ["2"]
        assert rows["kv.unavail_us"] == ["210"]

    def test_kv_determinism_gate(self, capsys):
        out, _ = run_scenario(capsys, "kv_get_replicated")
        assert "determinism: OK" in out

    def test_kv_rejects_non_redundant_backend(self, capsys):
        assert main(["run", "kv_failover", "--backend", "sharded:2",
                     "--once"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("rejoin_at", [800, 900])
    def test_kv_rejects_rejoin_not_after_kill(self, rejoin_at):
        # A rejoin at or before the kill would "rejoin" a live member,
        # which then dies for good and is never resilvered.
        with pytest.raises(ValueError, match="must come after the kill"):
            kv_failover(kill_at_us=900.0, rejoin_at_us=rejoin_at)


class TestRun:
    """``repro run``: any registry scenario, printed by one code path."""

    def test_lists_every_scenario(self, capsys):
        assert main(["run"]) == 0
        out = capsys.readouterr().out
        for name, scenario in SCENARIOS.items():
            row = f"^{re.escape(name)} +{re.escape(scenario.description)}$"
            assert re.search(row, out, re.MULTILINE), name
        assert main(["run", "nope"]) == 2
        assert capsys.readouterr().err.startswith("error: unknown scenario")

    @pytest.mark.parametrize("name", [
        "seqread_dilos_small", "stream-duo", "llm_flash_crowd",
        "kv_failover", "rack_redis_pool", "repair_demo", "llm_pd"])
    def test_prints_the_pinned_digests(self, capsys, name):
        """One scenario of each builder family: single-system, tenancy,
        serve preset, KV failover, rack, repair demo and P:D."""
        out, _ = run_scenario(capsys, name, "--once")
        assert f"\nmetrics digest: {GOLDEN[name][0]}\n" in out
        if name in TRACE_DIGESTS:
            assert f"\nrequest-trace digest: {TRACE_DIGESTS[name]}\n" in out
        assert "determinism" not in out

    def test_rejects_an_override_the_builder_does_not_take(self, capsys):
        assert main(["run", "kv_failover", "--spec",
                     "poisson:rate=1k,requests=10", "--once"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_failed_audit_exits_1(self, capsys, monkeypatch):
        def builder():
            raise AssertionError("page 3 corrupted")

        monkeypatch.setitem(SCENARIOS, "broken", Scenario("raises", builder))
        assert main(["run", "broken", "--once"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "page 3 corrupted" in err


class TestLlmCommands:
    def test_llm_single_node(self, capsys):
        _, rows = run_scenario(capsys, "llm_dilos", "--once")
        assert rows["requests"] == rows["llm.requests"] == ["4"]
        assert rows["decoded_tokens"] == rows["llm.decode_tokens"]
        assert len(rows["token_digest"][0]) == 64

    def test_llm_pd_mode(self, capsys):
        """P:D over a lossy wire decodes the perfect wire's tokens, in
        more simulated time."""
        _, perfect = run_scenario(capsys, "llm_pd", "--once")
        _, lossy = run_scenario(capsys, "llm_pd", "--once", "--net-faults",
                                "drop=0.01,seed=3")
        assert perfect["split"] == ["1:1"]
        assert int(perfect["per_tenant.decode0.major_faults"][0]) > 0
        assert lossy["token_digest"] == perfect["token_digest"]
        assert lossy["kv_transfer_bytes"] == perfect["kv_transfer_bytes"]
        assert lossy["makespan_us"] != perfect["makespan_us"]

    def test_llm_pd_rejects_aifm(self, capsys):
        assert main(["run", "llm_pd", "--system", "aifm"]) == 2
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
        assert main(["sweep", "rack", "--pd-splits", "1:1"]) == 2
        assert "only applies to the llm sweep" in capsys.readouterr().err

    def test_ratios_rejected_for_the_rack_sweep(self, capsys):
        assert main(["sweep", "rack", "--ratios", "0.5", "--size", "2",
                     "--placements", "locality", "--oversubs", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: --ratios only applies to the llm sweep\n")

    def test_llm_sweep_defaults_to_one_kernel(self, capsys):
        """Without --systems the llm grid runs its one default kernel."""
        assert main(["sweep", "llm", "--pd-splits", "1:1", "--ratios",
                     "1.0", "--size", "3"]) == 0
        assert "on dilos-readahead" in capsys.readouterr().out

    def test_rack_sweep_rejects_two_explicit_kernels(self, capsys):
        """An explicit --systems pair is refused: the rack grid's axes
        are placement and oversubscription on one kernel."""
        assert main(["sweep", "rack", "--systems", "fastswap",
                     "dilos-readahead"]) == 2
        assert "exactly one" in capsys.readouterr().err
