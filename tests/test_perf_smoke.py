"""Tier-1 smoke coverage for the wall-clock perf suite.

Runs the ``benchmarks/perf`` harness in 1-iteration mode over its two
cheapest kernels so harness bitrot (an import break, a renamed metric, a
kernel that stopped being deterministic) surfaces in the default test
tier without paying full benchmark wall-clock, and validates the
``BENCH_perf.json`` schema the perf trajectory depends on.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness import perf

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Every benchmark row must carry at least these keys.
ROW_KEYS = {"name", "wall_us", "sim_us", "ops", "checksum"}

#: Cheapest kernels — enough to prove the harness end to end.
SMOKE_CASES = ["seqread_dilos", "quicksort_dilos"]


def test_case_registry_is_well_formed():
    names = [case.name for case in perf.CASES]
    assert len(names) == len(set(names)), "duplicate benchmark names"
    assert len(names) >= 6, "acceptance floor: at least 6 hot-path benchmarks"
    headliners = [case.name for case in perf.CASES if case.headline]
    assert headliners == ["seqread_dilos"]
    for name in SMOKE_CASES:
        assert perf.case_by_name(name).name == name


def test_run_case_smoke_is_deterministic():
    case = perf.case_by_name("seqread_dilos")
    first = perf.run_case(case, iterations=1)
    second = perf.run_case(case, iterations=1)
    assert first.checksum == second.checksum
    assert first.sim_us == second.sim_us
    assert first.ops == second.ops > 0
    assert first.wall_us > 0


def test_perf_main_smoke_writes_schema_valid_report(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    # Point at an absent baseline: tier-1 validates the harness and the
    # report schema; wall-clock gating against the committed reference
    # belongs to `python -m repro perf` runs, not to (noisy, shared) test
    # hosts. The gate logic itself is covered below.
    rc = perf.main(["--smoke", "--out", str(out),
                    "--baseline", str(tmp_path / "absent.json"),
                    "--only", *SMOKE_CASES])
    assert rc == 0, "smoke run with no reference cannot regress"
    report = json.loads(out.read_text())
    assert report["schema"] == perf.SCHEMA
    assert report["suite"] == "benchmarks/perf"
    assert report["iterations"] == 1
    rows = report["benchmarks"]
    assert [row["name"] for row in rows] == SMOKE_CASES
    for row in rows:
        assert ROW_KEYS <= set(row), f"missing keys in {row}"
        assert row["wall_us"] > 0
        assert row["sim_us"] > 0
        assert row["ops"] > 0
        assert len(row["checksum"]) == 64
        int(row["checksum"], 16)  # hex digest
        if "reference_wall_us" in row:
            assert isinstance(row["regressed"], bool)


def test_perf_main_exits_nonzero_on_regression(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({
        "schema": perf.BASELINE_SCHEMA,
        "pre_pr": {},
        # An impossible reference: any real run regresses past it.
        "reference": {"quicksort_dilos": 0.001},
        "tolerance": 1.0,
    }))
    rc = perf.main(["--smoke", "--out", str(out),
                    "--baseline", str(baseline),
                    "--only", "quicksort_dilos"])
    assert rc == 1
    report = json.loads(out.read_text())
    assert report["benchmarks"][0]["regressed"] is True


def test_committed_baseline_is_loadable():
    baseline = perf.load_baseline(perf.DEFAULT_BASELINE)
    assert baseline["schema"] == perf.BASELINE_SCHEMA
    assert set(baseline["pre_pr"]) == {case.name for case in perf.CASES}
    assert baseline["tolerance"] >= 1.0


def test_committed_bench_report_claims_headline_speedup():
    """The acceptance contract: the committed BENCH_perf.json carries the
    headline seq-read speedup over the pre-PR baseline."""
    path = REPO_ROOT / "BENCH_perf.json"
    if not path.exists():
        pytest.skip("BENCH_perf.json not generated yet")
    report = json.loads(path.read_text())
    assert report["schema"] == perf.SCHEMA
    assert len(report["benchmarks"]) >= 6
    by_name = {row["name"]: row for row in report["benchmarks"]}
    headline = by_name["seqread_dilos"]
    assert headline["speedup_vs_baseline"] >= 1.5, (
        "headline seq-read speedup claim regressed: "
        f"{headline['speedup_vs_baseline']}x")


#: App-level benchmarks (whole workloads, not raw access-loop
#: microbenchmarks).
APP_LEVEL_CASES = {"quicksort_dilos", "seqscan_aifm", "redis_get_dilos",
                   "redis_get_fastswap", "kmeans_dilos", "dataframe_dilos"}


def test_app_level_cases_covered_by_baseline():
    """Schema coverage for the app-level entries: every one is a
    registered case and carries both a frozen pre-PR wall time and a
    rolling reference in the committed baseline."""
    names = {case.name for case in perf.CASES}
    assert APP_LEVEL_CASES <= names
    baseline = perf.load_baseline(perf.DEFAULT_BASELINE)
    assert APP_LEVEL_CASES <= set(baseline["pre_pr"])
    assert APP_LEVEL_CASES <= set(baseline["reference"])


def test_injected_slowdown_in_batch_benchmark_fires_gate(
        tmp_path, monkeypatch):
    """Red-green for the regression gate on an app-level benchmark:
    the same reference passes an honest run (green) and catches an
    injected slowdown (red)."""
    import time as _time

    case = perf.case_by_name("kmeans_dilos")
    honest = perf.run_case(case, iterations=1)

    baseline = tmp_path / "baseline.json"
    # Reference far above the honest measurement so a noisy host cannot
    # turn the green half red; the injected sleep then overshoots it.
    reference_us = honest.wall_us * 10
    baseline.write_text(json.dumps({
        "schema": perf.BASELINE_SCHEMA,
        "pre_pr": {"kmeans_dilos": round(honest.wall_us, 1)},
        "reference": {"kmeans_dilos": round(reference_us, 1)},
        "tolerance": 1.5,
    }))
    args = ["--smoke", "--out", str(tmp_path / "BENCH_perf.json"),
            "--baseline", str(baseline), "--only", "kmeans_dilos"]

    assert perf.main(args) == 0, "honest run must pass the gate"

    slow_s = reference_us * 1.5 * 2 / 1e6
    orig_fn = case.fn

    def slowed():
        _time.sleep(slow_s)
        return orig_fn()

    monkeypatch.setattr(case, "fn", slowed)
    assert perf.main(args) == 1, "injected slowdown must trip the gate"
    report = json.loads((tmp_path / "BENCH_perf.json").read_text())
    row = report["benchmarks"][0]
    assert row["name"] == "kmeans_dilos"
    assert row["regressed"] is True


def test_committed_bench_report_claims_app_level_speedups():
    """Acceptance contract: at least two app-level benchmarks beat the
    frozen pre-PR baseline by >= 10x in the committed report."""
    path = REPO_ROOT / "BENCH_perf.json"
    if not path.exists():
        pytest.skip("BENCH_perf.json not generated yet")
    report = json.loads(path.read_text())
    by_name = {row["name"]: row for row in report["benchmarks"]}
    tenfold = [name for name in APP_LEVEL_CASES
               if by_name.get(name, {}).get("speedup_vs_baseline", 0) >= 10]
    assert len(tenfold) >= 2, (
        "fewer than two app-level benchmarks hold a 10x speedup over "
        f"the pre-PR baseline: {sorted(tenfold)}")


@pytest.mark.slow
def test_perf_jobs_matches_serial():
    """``--jobs`` fan-out runs each case in a pool worker; the merged
    results must equal a serial run's, in order."""
    from repro.harness.parallel import fanout

    names = ["quicksort_dilos", "seqscan_aifm"]
    serial = [perf.run_case(perf.case_by_name(name), 1) for name in names]
    fanned = fanout(perf._run_case_cell, [(name, 1) for name in names],
                    jobs=2)
    assert [(r.name, r.sim_us, r.ops, r.checksum) for r in fanned] == \
        [(r.name, r.sim_us, r.ops, r.checksum) for r in serial]


@pytest.mark.slow
def test_cli_perf_subcommand_smoke(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "perf", "--smoke",
         "--out", str(out), "--only", "quicksort_dilos",
         # Absent baseline: a 1-iteration run on a loaded CI host must
         # never trip the wall-clock gate from inside tier-1.
         "--baseline", str(tmp_path / "absent.json")],
        cwd=REPO_ROOT, capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
