"""Host-time benchmark of the simulator, with per-layer attribution.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rack_redis --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off:
``host_ops_per_s``, ``setup_s`` and ``peak_rss_mb``. ``--trace 1``
installs the span recorder (spans.py) before anything boots, runs the
same workload traced, then replays the same chunks untraced in the same
process to measure the tracing overhead, and prints the per-layer
metrics: host self time and calls per layer, work counts from the
program's own metrics, and the simulated-time breakdown. Every run
checks the program's outputs and exits 1 on a wrong one; the last line
of standard output is one JSON object. ``--workload all`` runs every
workload, each in a fresh process, and prints a table.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Tuple  # noqa: E402

from probe import nominal, probe  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("rack_redis", "llm_pd", "kv_chaos")

#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: ``peak_rss_mb`` is the high-water mark after this many timed chunks.
#: The resident set grows with the work done (the pooled remote store
#: fills, caches churn), so sampling it after a fixed amount of work
#: keeps a faster simulator, which fits more chunks into the run, from
#: reading as one that uses more memory.
RSS_CHUNKS = 16

#: Trace files land here, inside the checkout.
OUT_DIR = os.path.join(ROOT, ".perfbench")

END_TO_END = (("host_ops_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB"))


def per_layer_units() -> List[Tuple[str, str]]:
    """Every per-layer metric the traced run prints, with its unit."""
    from spans import LAYER_NAMES

    names: List[Tuple[str, str]] = []
    for layer in LAYER_NAMES:
        names.append((f"{layer}.self_us_per_op", "us"))
        names.append((f"{layer}.calls_per_op", "count"))
    names += [
        ("trace.overhead_ratio", "ratio"),
        ("trace.unattributed_us_per_op", "us"),
        ("trace.timed_us_per_op", "us"),
        ("setup.import_s", "s"),
        ("setup.boot_s", "s"),
        ("setup.populate_s", "s"),
        ("setup.warmup_s", "s"),
        ("core.fault.major_per_op", "count"),
        ("core.fault.minor_per_op", "count"),
        ("core.fault.first_touch_per_op", "count"),
        ("core.prefetch.issued_per_op", "count"),
        ("core.prefetch.useful_ratio", "ratio"),
        ("mem.vm.tlb_hit_ratio", "ratio"),
        ("core.page_manager.evicted_per_op", "count"),
        ("core.page_manager.cleaned_per_op", "count"),
        ("net.qp.bytes_per_op", "B"),
        ("net.reliable.retries_per_op", "count"),
        ("net.topology.trunk_crossings_per_op", "count"),
        ("mem.pool.spills_per_op", "count"),
        ("mem.cluster.resilvered_pages_per_op", "count"),
        ("apps.kv.failovers", "count"),
        ("apps.kv.refused_per_op", "count"),
        ("serve.shed_ratio", "ratio"),
        ("simtime.latency_p50_us", "us"),
        ("simtime.latency_p99_us", "us"),
        ("simtime.latency_samples", "count"),
        ("simtime.queue_us_per_op", "us"),
        ("simtime.service_us_per_op", "us"),
        ("simtime.fault_exception_us_per_op", "us"),
        ("simtime.fault_software_us_per_op", "us"),
        ("simtime.fault_fetch_us_per_op", "us"),
        ("simtime.fault_reclaim_us_per_op", "us"),
        ("simtime.link_queue_us_per_op", "us"),
        ("simtime.unavail_us", "us"),
        ("simtime.goodput_rps", "1/s"),
        ("simtime.slo_miss_ratio", "ratio"),
    ]
    return names


# -- the timed phase ---------------------------------------------------------


class Phase:
    """What one timed phase measured."""

    def __init__(self) -> None:
        self.chunks = 0
        self.seconds = 0.0
        #: ``seconds`` rescaled to the nominal machine speed (probe.py).
        self.nominal_seconds = 0.0
        self.peak_rss_mib = 0.0
        #: Host windows of the timed chunks (for the span export).
        self.windows: List[Tuple[float, float]] = []


def timed_phase(workload: Any, seconds: float, chunks: int = 0,
                recorder: Any = None) -> Tuple[Phase, List[float],
                                               List[int]]:
    """Run chunks until ``seconds`` of timed host time and at least
    :data:`RSS_CHUNKS` chunks (or exactly ``chunks`` chunks when given).
    Only ``run_chunk`` is timed; the speed probe runs between chunks.
    With a recorder, returns its per-layer self seconds and calls
    accrued inside the timed windows."""
    phase = Phase()
    speed = probe()
    n = len(recorder.self_s) if recorder is not None else 0
    self_s = [0.0] * n
    calls = [0] * n
    while (phase.chunks < chunks) if chunks else \
            (phase.seconds < seconds or phase.chunks < RSS_CHUNKS):
        workload.prepare(phase.chunks)
        if recorder is not None:
            s0 = list(recorder.self_s)
            c0 = list(recorder.calls)
        t0 = time.perf_counter()
        workload.run_chunk()
        t1 = time.perf_counter()
        if recorder is not None:
            for j in range(n):
                self_s[j] += recorder.self_s[j] - s0[j]
                calls[j] += recorder.calls[j] - c0[j]
        after = probe()
        phase.seconds += t1 - t0
        phase.nominal_seconds += nominal(t1 - t0, speed, after)
        speed = after
        phase.windows.append((t0, t1))
        workload.account(phase.chunks)
        phase.chunks += 1
        if phase.chunks == RSS_CHUNKS:
            phase.peak_rss_mib = peak_rss_mib()
    return phase, self_s, calls


def build(name: str, seed: int) -> Tuple[Any, Dict[str, float]]:
    """A set-up workload and its set-up phases in nominal seconds."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    before = probe()
    split = workload.setup()
    after = probe()
    return workload, {phase: nominal(secs, before, after)
                      for phase, secs in split.items()}


def audit(workload: Any) -> List[str]:
    """Per-operation check failures plus the end-of-run audit."""
    return list(workload.mismatches) + workload.check()


# -- metrics -----------------------------------------------------------------


def layer_metrics(workload: Any, before: Dict[str, float],
                  after: Dict[str, float]) -> Dict[str, float]:
    """Work counts and the simulated-time breakdown of the timed phase,
    per successful operation."""
    ops = max(workload.ok, 1)

    def delta(*keys: str) -> float:
        return sum(after.get(k, 0.0) - before.get(k, 0.0) for k in keys)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    sim = workload.simtime()
    useful = delta("prefetch.useful")
    hits = delta("tlb.hits")
    return {
        "core.fault.major_per_op": delta("fault.major") / ops,
        "core.fault.minor_per_op": delta("fault.minor") / ops,
        "core.fault.first_touch_per_op": delta("fault.first_touch") / ops,
        "core.prefetch.issued_per_op": delta("prefetch.issued") / ops,
        "core.prefetch.useful_ratio": ratio(
            useful, useful + delta("prefetch.useless")),
        "mem.vm.tlb_hit_ratio": ratio(hits, hits + delta("tlb.misses")),
        "core.page_manager.evicted_per_op":
            delta("reclaim.pages_evicted") / ops,
        "core.page_manager.cleaned_per_op":
            delta("reclaim.pages_cleaned") / ops,
        "net.qp.bytes_per_op":
            delta("net.bytes_read", "net.bytes_written") / ops,
        "net.reliable.retries_per_op": delta("net.retry") / ops,
        "net.topology.trunk_crossings_per_op":
            delta("topo.trunk_crossings") / ops,
        "mem.pool.spills_per_op": delta("pool.spills") / ops,
        "mem.cluster.resilvered_pages_per_op":
            delta("repair.pages_resilvered") / ops,
        "apps.kv.failovers": delta("kv.failovers"),
        "apps.kv.refused_per_op": delta("kv.refused") / ops,
        "serve.shed_ratio": ratio(getattr(workload, "shed", 0),
                                  workload.attempted),
        "simtime.latency_p50_us": sim["latency_p50_us"],
        "simtime.latency_p99_us": sim["latency_p99_us"],
        "simtime.latency_samples": sim["latency_samples"],
        "simtime.queue_us_per_op": sim["queue_us"] / ops,
        "simtime.service_us_per_op": sim["service_us"] / ops,
        "simtime.fault_exception_us_per_op":
            delta("fault.breakdown.exception") / ops,
        "simtime.fault_software_us_per_op":
            delta("fault.breakdown.software") / ops,
        "simtime.fault_fetch_us_per_op":
            delta("fault.breakdown.fetch") / ops,
        "simtime.fault_reclaim_us_per_op":
            delta("fault.breakdown.reclaim") / ops,
        "simtime.link_queue_us_per_op": delta("topo.queue_us") / ops,
        "simtime.unavail_us": delta("kv.unavail_us"),
        "simtime.goodput_rps": sim["goodput_rps"],
        "simtime.slo_miss_ratio": ratio(sim["slo_misses"],
                                        workload.attempted),
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the two run modes -------------------------------------------------------


def run_untraced(name: str, seed: int, seconds: float,
                 import_s: float) -> Tuple[Any, Dict[str, float],
                                           List[str]]:
    setups: List[float] = []
    for _ in range(SETUP_REPEATS):
        workload = None
        gc.collect()
        workload, split = build(name, seed)
        setups.append(sum(split.values()))
    phase, _, _ = timed_phase(workload, seconds)
    print(f"host {phase.seconds:.3f} s = {phase.nominal_seconds:.3f} "
          f"nominal s; {workload.ok / phase.seconds:.6g} ops per host s")
    metrics = {
        "host_ops_per_s": workload.ok / phase.nominal_seconds,
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": phase.peak_rss_mib,
    }
    return workload, metrics, audit(workload)


def run_traced(name: str, seed: int, seconds: float,
               import_s: float) -> Tuple[Any, Dict[str, float],
                                         List[str]]:
    from spans import LAYER_NAMES, SpanRecorder

    recorder = SpanRecorder()
    recorder.install()
    try:
        workload, _ = build(name, seed)
        recorder.sim_now = lambda: (workload.cluster.clock.now
                                    if workload.cluster is not None
                                    else 0.0)
        before = workload.totals()
        recorder.reset()
        phase, self_s, calls = timed_phase(workload, seconds,
                                           recorder=recorder)
    finally:
        recorder.uninstall()
    after = workload.totals()
    problems = audit(workload)
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"{name}-seed{seed}.trace.json")
    recorder.write_chrome_trace(trace_path, f"perfbench {name}",
                                phase.windows)

    # The same chunks again with tracing off: the overhead baseline, and
    # proof that tracing did not change what was simulated.
    gc.collect()
    replay, split = build(name, seed)
    plain, _, _ = timed_phase(replay, seconds, chunks=phase.chunks)
    if replay.fingerprint != workload.fingerprint:
        problems.append("traced and untraced runs simulated different "
                        "results")

    ops = max(workload.ok, 1)
    metrics: Dict[str, float] = {}
    for layer, secs, count in zip(LAYER_NAMES, self_s, calls):
        metrics[f"{layer}.self_us_per_op"] = secs * 1e6 / ops
        metrics[f"{layer}.calls_per_op"] = count / ops
    attributed = sum(self_s)
    metrics["trace.overhead_ratio"] = \
        phase.nominal_seconds / plain.nominal_seconds
    metrics["trace.unattributed_us_per_op"] = \
        (phase.seconds - attributed) * 1e6 / ops
    metrics["trace.timed_us_per_op"] = phase.seconds * 1e6 / ops
    if attributed > phase.seconds * 1.01:
        problems.append("per-layer self times exceed the timed phase")
    parts = sum(metrics[f"{layer}.self_us_per_op"] for layer in LAYER_NAMES)
    parts += metrics["trace.unattributed_us_per_op"]
    if abs(parts - metrics["trace.timed_us_per_op"]) \
            > 0.01 * metrics["trace.timed_us_per_op"]:
        problems.append("per-layer self times do not add up to the timed "
                        "phase")
    metrics["setup.import_s"] = import_s
    metrics["setup.boot_s"] = split["boot_s"]
    metrics["setup.populate_s"] = split["populate_s"]
    metrics["setup.warmup_s"] = split["warmup_s"]
    metrics.update(layer_metrics(workload, before, after))
    print(f"spans: {trace_path}")
    return workload, metrics, problems


def run_one(args: argparse.Namespace) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads  # noqa: F401  (imports repro: part of set-up)

    import_s = time.perf_counter() - PROCESS_START
    import_s = nominal(import_s, probe(), probe())
    runner = run_traced if args.trace else run_untraced
    units = dict(per_layer_units()) if args.trace else dict(END_TO_END)
    workload, values, problems = runner(args.workload, args.seed,
                                        args.seconds, import_s)
    correct = not problems
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in values.items():
        print(f"  {key:<40} {value:>14.6g} {units[key]}")
    print(f"  attempted {workload.attempted}  failed {workload.failed}  "
          f"correct {str(correct).lower()}")
    for problem in problems[:10]:
        print(f"  check failed: {problem}")
    print("fingerprint " + json.dumps(workload.fingerprint, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in values.items()},
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own fresh process, then a summary table."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            rows.append((name, None))
            continue
        rows.append((name, json.loads(lines[-1])))
    print()
    for name, result in rows:
        if result is None:
            print(f"{name:<12} FAILED")
            continue
        cells = "  ".join(f"{key} {m['value']:.6g} {m['unit']}"
                          for key, m in result["metrics"].items()
                          if not args.trace)
        print(f"{name:<12} {cells}  attempted {result['attempted']} "
              f"failed {result['failed']} correct "
              f"{str(result['correct']).lower()}")
    return status


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
