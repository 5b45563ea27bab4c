"""Wall-clock performance suite over the simulator's hot kernels.

The simulator's results are *simulated-time* numbers, but how long the
simulation itself takes to run is what bounds every experiment sweep.
This module times the scenarios the registry
(:data:`repro.harness.scenarios.SCENARIOS`) marks ``perf`` — sequential
read/write, quicksort, a Redis GET mix, k-means, dataframe and LLM
inference across DiLOS, Fastswap and AIFM, plus the rack and replicated
KV serving runs — on the host clock, and emits ``BENCH_perf.json`` at the
repo root: the repo's wall-clock performance trajectory. Each case's
checksum and simulated time are also pinned by the golden-master suite
(``tests/test_golden_master.py``), so they stay bit-identical.

Two contracts are enforced on every run:

* **Determinism** — each benchmark runs on a fresh system with fixed
  seeds and must produce the same metrics digest
  (:meth:`~repro.obs.snapshot.MetricsSnapshot.digest`) on every
  iteration; a digest flap fails the run before any timing is reported.
* **No regression** — each benchmark's best wall time is compared against
  the reference recorded in ``benchmarks/perf/baseline.json``; exceeding
  ``reference * tolerance`` makes the runner exit non-zero.

``baseline.json`` also carries a frozen ``pre_pr`` section: the wall
times measured on the unoptimized code, against which the emitted
speedups are computed.

Run via ``python -m repro perf``::

    python -m repro perf                    # full run, write BENCH_perf.json
    python -m repro perf --smoke            # 1 iteration, harness sanity only
    python -m repro perf --update-baseline  # re-record the reference times
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.harness.scenarios import SCENARIOS, Scenario

#: BENCH_perf.json schema identifier.
SCHEMA = "repro-perf/1"
#: baseline.json schema identifier.
BASELINE_SCHEMA = "repro-perf-baseline/1"
#: Default allowed wall-clock regression vs the recorded reference.
#: Wall time on shared machines is noisy; 1.6x is loose enough to dodge
#: scheduler jitter while still catching a hot path falling off a cliff.
DEFAULT_TOLERANCE = 1.6

_REPO_ROOT = Path(__file__).resolve().parents[3]
#: Where ``python -m repro perf`` writes its report.
DEFAULT_OUT = _REPO_ROOT / "BENCH_perf.json"
#: Reference + pre-PR wall times, checked in with the benchmark suite.
DEFAULT_BASELINE = _REPO_ROOT / "benchmarks" / "perf" / "baseline.json"


@dataclass
class PerfRun:
    """What one execution of a benchmark kernel yields."""

    sim_us: float
    ops: int
    checksum: str


@dataclass
class PerfCase:
    """One hot-path benchmark: a named, self-contained kernel."""

    name: str
    description: str
    fn: Callable[[], PerfRun]
    #: The headline benchmark carries the PR's speedup claim.
    headline: bool = False


@dataclass
class PerfResult:
    """One benchmark's timing plus its determinism checksum."""

    name: str
    wall_us: float
    sim_us: float
    ops: int
    checksum: str

    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "wall_us": round(self.wall_us, 1),
                "sim_us": self.sim_us, "ops": self.ops,
                "checksum": self.checksum}


#: The case carrying the suite's headline speedup claim.
HEADLINE = "seqread_dilos"


def _timed(scenario: Scenario) -> Callable[[], PerfRun]:
    """The timed body of one case: run the scenario on a fresh system
    (determinism requires it) and fingerprint the result."""
    def fn() -> PerfRun:
        run = scenario.build()
        return PerfRun(run.sim_us, run.ops, run.digest())
    return fn


#: Every registry scenario marked ``perf``, in registry order.
CASES: List[PerfCase] = [
    PerfCase(name, scenario.description, _timed(scenario),
             headline=(name == HEADLINE))
    for name, scenario in SCENARIOS.items() if scenario.perf]


def case_by_name(name: str) -> PerfCase:
    """The registered perf case called ``name`` (``KeyError`` if none)."""
    for case in CASES:
        if case.name == name:
            return case
    raise KeyError(f"unknown perf case {name!r}")


# -- running ------------------------------------------------------------------


def run_case(case: PerfCase, iterations: int = 3) -> PerfResult:
    """Best-of-``iterations`` wall time; raises if the digest is unstable."""
    if iterations <= 0:
        raise ValueError("iterations must be positive")
    best_wall = None
    run: Optional[PerfRun] = None
    for _ in range(iterations):
        t0 = time.perf_counter()
        this = case.fn()
        wall_us = (time.perf_counter() - t0) * 1e6
        if run is not None and (this.checksum != run.checksum
                                or this.sim_us != run.sim_us):
            raise AssertionError(
                f"{case.name}: non-deterministic run — metrics digest "
                f"{this.checksum[:12]} != {run.checksum[:12]} "
                f"(sim {this.sim_us} vs {run.sim_us})")
        run = this
        if best_wall is None or wall_us < best_wall:
            best_wall = wall_us
    return PerfResult(case.name, best_wall, run.sim_us, run.ops,
                      run.checksum)


def load_baseline(path: Path) -> Dict[str, Any]:
    """Read a wall-time baseline file; an empty one if ``path`` is absent."""
    if not path.exists():
        return {"schema": BASELINE_SCHEMA, "pre_pr": {}, "reference": {},
                "tolerance": DEFAULT_TOLERANCE}
    with open(path) as fh:
        data = json.load(fh)
    if data.get("schema") != BASELINE_SCHEMA:
        raise ValueError(f"{path}: unexpected baseline schema "
                         f"{data.get('schema')!r}")
    return data


def build_report(results: List[PerfResult], baseline: Dict[str, Any],
                 iterations: int, tolerance: float) -> Dict[str, Any]:
    """Assemble the BENCH_perf.json payload (includes regression verdicts)."""
    pre_pr = baseline.get("pre_pr", {})
    reference = baseline.get("reference", {})
    rows = []
    for result in results:
        row = result.as_dict()
        base = pre_pr.get(result.name)
        if base:
            row["baseline_wall_us"] = base
            row["speedup_vs_baseline"] = round(base / result.wall_us, 2)
        ref = reference.get(result.name)
        if ref:
            row["reference_wall_us"] = ref
            row["regressed"] = result.wall_us > ref * tolerance
        rows.append(row)
    return {
        "schema": SCHEMA,
        "suite": "benchmarks/perf",
        "iterations": iterations,
        "tolerance": tolerance,
        "host": {"python": platform.python_version(),
                 "implementation": platform.python_implementation(),
                 "machine": platform.machine()},
        "benchmarks": rows,
    }


def _run_case_cell(cell) -> PerfResult:
    """Picklable pool worker for ``--jobs``: resolve the case by name in
    the child (the CASES thunks are closures, which do not pickle) and
    run it there."""
    name, iterations = cell
    return run_case(case_by_name(name), iterations)


def main(argv: Optional[List[str]] = None) -> int:
    """``repro perf``: run the suite, write the report, gate on regression."""
    parser = argparse.ArgumentParser(
        prog="repro perf",
        description="Run the wall-clock perf suite; write BENCH_perf.json "
                    "and fail on regression past tolerance.")
    parser.add_argument("--iterations", type=int, default=3,
                        help="runs per benchmark; best wall time is kept")
    parser.add_argument("--smoke", action="store_true",
                        help="single iteration per benchmark (CI smoke)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="report path (default: repo-root "
                             "BENCH_perf.json)")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="baseline/reference wall-time file")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="allowed wall-time factor over the reference "
                             "(default: baseline file's, else "
                             f"{DEFAULT_TOLERANCE})")
    parser.add_argument("--only", nargs="+", metavar="NAME", default=None,
                        help="run only these benchmarks")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="fan cases out across N worker processes "
                             "(checksums/sim times are identical to a "
                             "serial run; wall times may inflate under "
                             "CPU contention, so prefer serial when "
                             "gating)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the reference section from this run")
    parser.add_argument("--record-pre-pr", action="store_true",
                        help="also freeze this run as the pre-PR baseline "
                             "(one-time, on the unoptimized code)")
    args = parser.parse_args(argv)

    iterations = 1 if args.smoke else args.iterations
    cases = CASES if args.only is None else [case_by_name(n)
                                             for n in args.only]
    baseline = load_baseline(args.baseline)
    tolerance = (args.tolerance if args.tolerance is not None
                 else baseline.get("tolerance", DEFAULT_TOLERANCE))

    from repro.harness.parallel import fanout

    results: List[PerfResult] = fanout(
        _run_case_cell, [(case.name, iterations) for case in cases],
        args.jobs)
    for result in results:
        print(f"  {result.name:<22} {result.wall_us / 1000:9.1f} ms wall   "
              f"{result.sim_us / 1000:9.2f} ms sim   "
              f"{result.ops:>6} ops   {result.checksum[:12]}")

    if args.update_baseline or args.record_pre_pr:
        for result in results:
            baseline["reference"][result.name] = round(result.wall_us, 1)
            if args.record_pre_pr:
                baseline["pre_pr"][result.name] = round(result.wall_us, 1)
        baseline["tolerance"] = tolerance
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        with open(args.baseline, "w") as fh:
            json.dump(baseline, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"updated {args.baseline}")

    report = build_report(results, baseline, iterations, tolerance)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")

    regressed = [row for row in report["benchmarks"]
                 if row.get("regressed")]
    for row in regressed:
        print(f"REGRESSION: {row['name']} took {row['wall_us'] / 1000:.1f} "
              f"ms vs reference {row['reference_wall_us'] / 1000:.1f} ms "
              f"(tolerance {tolerance}x)", file=sys.stderr)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
