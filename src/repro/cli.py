"""Command-line runner: single experiments without writing a script.

Examples::

    python -m repro systems
    python -m repro figure
    python -m repro figure fig7a --systems fastswap --ratios 0.125 1.0
    python -m repro figure table2-read --systems dilos-readahead --size 4
    python -m repro figure fig10d --systems dilos-app-aware
    python -m repro trace fig7b --system dilos-readahead --ratio 0.125
    python -m repro run
    python -m repro run flash_crowd
    python -m repro run kv_failover --backend parity:2+1 --once
    python -m repro run llm_pd --once --net-faults drop=0.01,seed=3

``figure`` boots a fresh simulated machine per cell of a paper table or
figure (:data:`repro.harness.figures.FIGURES`) and prints the grid; a
one-cell run also prints the workload's result and the paging-subsystem
counters. ``run`` builds one named scenario
(:data:`repro.harness.scenarios.SCENARIOS`) and prints its report,
counters and pinned digests.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Mapping, Optional

from repro.common.units import MIB
from repro.core.spec import BACKEND_SPEC_EXAMPLES, make_backend
from repro.harness import SYSTEM_KINDS, format_table
from repro.harness.experiment import APP_AWARE
from repro.net.faults import FaultPlan

# Each command imports its app modules itself: most apps are numpy-native,
# and the serving, KV, rack, repair and LLM scenarios boot without numpy.


def _print_counters(counters: Mapping[str, float]) -> None:
    interesting = ("fault.major", "fault.minor", "fault.first_touch",
                   "prefetch.issued", "reclaim.direct",
                   "reclaim.pages_evicted", "reclaim.pages_cleaned",
                   "net.bytes_read", "net.bytes_written", "deref.total")
    rows = [[key, counters[key]] for key in interesting if key in counters]
    print(format_table("paging counters", ["counter", "value"], rows))


def _fault_spec(spec: str) -> str:
    """argparse type for --net-faults: validate the spec, return the
    string, so each boot parses a fresh plan (errors exit 2 cleanly)."""
    try:
        FaultPlan.from_spec(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return spec


def _backend_spec(spec: str) -> str:
    """argparse type for --backend: validate the spec, return the string
    (systems are sized per command, so the real backend is built later)."""
    try:
        make_backend(spec, 1 * MIB)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return spec


def _serve_spec(spec: str) -> str:
    """argparse type for --spec: validate the serve spec, return it."""
    from repro.serve import coerce_serve_spec
    try:
        coerce_serve_spec(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return spec


def cmd_figure(args) -> int:
    """Run one paper table or figure: its system x ratio grid, or the
    part of it ``--systems``/``--ratios`` pick, at the figure's sizes."""
    from repro.harness import ratio_table
    from repro.harness.figures import FIGURES, report_rows, run_figure
    from repro.harness.results import save_json

    if args.figure is None:
        print(format_table(
            "paper figures (repro figure <id>)", ["id", "title", "--size"],
            [[name, figure.title, f"{figure.size}={figure.params[figure.size]}"]
             for name, figure in FIGURES.items()]))
        return 0
    try:
        measurements = run_figure(
            args.figure, systems=args.systems, ratios=args.ratios,
            size=args.size, jobs=args.jobs, backend=args.backend,
            net_faults=args.net_faults)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(ratio_table(FIGURES[args.figure].title, measurements))
    if len(measurements) == 1:
        only = measurements[0]
        print(format_table(f"{only.system} at {only.ratio:g}",
                           ["result", "value"],
                           report_rows(only.extra["result"])))
        _print_counters(only.extra["metrics"]["counters"])
    if args.save:
        save_json(measurements, args.save)
        print(f"saved {len(measurements)} measurements to {args.save}")
    return 0


def cmd_trace(args) -> int:
    """Run one figure cell with event tracing on, print a Fig.-6-style
    fault breakdown computed from the recorded spans, and export the
    trace as Chrome ``trace_event`` JSON (Perfetto-loadable) and/or
    JSONL."""
    from repro.harness.figures import run_cell
    from repro.obs import (
        Observability,
        fault_breakdown_from_spans,
        write_chrome_trace,
        write_jsonl,
    )

    if args.capacity <= 0:
        print("error: --capacity must be a positive event count",
              file=sys.stderr)
        return 2
    obs = Observability.tracing(capacity=args.capacity)
    try:
        system = run_cell(args.figure, args.system, args.ratio, args.size,
                          obs=obs, backend=args.backend,
                          net_faults=args.net_faults).target
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tracer = obs.tracer
    print(f"{system.name}: {args.figure} recorded {len(tracer)} trace "
          f"events ({tracer.dropped} dropped at the ring buffer) over "
          f"{system.clock.now / 1000:.2f} simulated ms")
    breakdown = fault_breakdown_from_spans(tracer)
    if breakdown["count"]:
        rows = [[component, f"{avg_us:.3f}"]
                for component, avg_us in sorted(
                    breakdown["components"].items())]
        rows.append(["total (avg span)", f"{breakdown['avg_total_us']:.3f}"])
        print(format_table(
            f"fault.major breakdown from {breakdown['count']} spans (us)",
            ["component", "avg_us"], rows))
    if args.out:
        write_chrome_trace(tracer, args.out, process_name=system.name)
        print(f"wrote Chrome trace to {args.out} "
              "(load it at https://ui.perfetto.dev)")
    if args.jsonl:
        count = write_jsonl(tracer, args.jsonl)
        print(f"wrote {count} events to {args.jsonl}")
    return 0


def _sweep_llm(args) -> int:
    """The llm sweep grid: P:D split x local-memory ratio on one kernel.

    All validation happens here, before any pool worker is spawned — a
    bad kernel/split surfaces as a clear exit-2 message, never as a
    SystemExit inside a ``--jobs`` worker (which would hang the map).
    """
    from repro.apps.llm import (PdSweepRunner, best_split_per_ratio,
                                parse_pd_split)
    from repro.harness import ratio_table
    from repro.harness.experiment import sweep_ratios
    from repro.harness.results import save_json

    if any(kind.startswith("aifm") for kind in args.systems):
        print("error: the llm sweep disaggregates prefill/decode across "
              "a shared cluster backend, which AIFM tenants cannot join "
              "(bump allocation); pick a paging kernel, or run the "
              "single-node AIFM port via 'repro run llm_aifm'",
              file=sys.stderr)
        return 2
    if len(args.systems) != 1:
        print("error: the llm sweep grid is P:D split x ratio on one "
              "kernel; pass exactly one --systems kind", file=sys.stderr)
        return 2
    splits = args.pd_splits or ["3:1", "2:2", "1:3"]
    try:
        for split in splits:
            parse_pd_split(split)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ratios = args.ratios or [0.25, 0.5, 1.0, 1.5]

    runner = PdSweepRunner(args.systems[0], n_requests=args.size or 12)
    measurements = sweep_ratios("llm", runner, splits, ratios,
                                backend=args.backend, jobs=args.jobs)
    print(ratio_table(
        f"llm prefill/decode makespan on {args.systems[0]}", measurements))
    best = best_split_per_ratio(measurements)
    print(format_table(
        "best P:D split per local-memory ratio",
        ["ratio", "split"],
        [[f"{ratio:g}", split] for ratio, split in best.items()]))
    if len(set(best.values())) > 1:
        print("regime crossover: the best split changes with the "
              "local-memory ratio")
    if args.save:
        save_json(measurements, args.save)
        print(f"saved {len(measurements)} measurements to {args.save}")
    return 0


def _sweep_rack(args) -> int:
    """The rack sweep grid: placement policy x ToR oversubscription.

    Every cell boots a fresh rack (same tenants, same arrival stream)
    and reports the serving tail next to the fabric/pool metrics that
    explain it — the locality-vs-load tradeoff in one table. All
    validation happens here, before any ``--jobs`` pool worker spawns.
    """
    import json

    from repro.mem.pool import PLACEMENTS
    from repro.sim.rack import sweep_rack

    placements = args.placements or ["locality", "load"]
    unknown = [p for p in placements if p not in PLACEMENTS]
    if unknown:
        print(f"error: unknown placement policies {unknown}; pick from "
              f"{list(PLACEMENTS)}", file=sys.stderr)
        return 2
    oversubs = args.oversubs or [1.0, 4.0]
    if any(o < 1.0 for o in oversubs):
        print("error: oversubscription factors must be >= 1",
              file=sys.stderr)
        return 2
    if len(args.systems) != 1:
        print("error: the rack sweep grid is placement x oversubscription "
              "on one kernel; pass exactly one --systems kind",
              file=sys.stderr)
        return 2
    if args.systems[0].startswith("aifm"):
        print("error: AIFM tenants cannot share the rack's pooled backend "
              "(bump allocation); pick a paging kernel", file=sys.stderr)
        return 2

    rows = sweep_rack(placements, oversubs, jobs=args.jobs,
                      kind=args.systems[0],
                      tenants=args.size or 8)
    print(format_table(
        f"rack serving tail on {args.systems[0]} "
        f"({args.size or 8} tenants)",
        ["placement", "oversub", "p99_us", "viol_rate", "trunk_xing",
         "trunk_q_us", "spills", "stranded", "frag"],
        [[r["placement"], f"{r['oversub']:g}", f"{r['p99_us']:.2f}",
          f"{r['violation_rate']:.4f}", int(r["trunk_crossings"]),
          f"{r['trunk_queue_us']:.1f}", int(r["pool_spills"]),
          int(r["stranded_slots"]), f"{r['frag_imbalance']:.3f}"]
         for r in rows]))
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
        print(f"saved {len(rows)} cells to {args.save}")
    return 0


def cmd_sweep(args) -> int:
    """Sweep the llm P:D-split x ratio grid or the rack placement x
    oversubscription grid on one kernel (the paper's system x ratio
    grids are ``repro figure``)."""
    for flag, given in (("--pd-splits", args.pd_splits),
                        ("--ratios", args.ratios)):
        if given and args.workload != "llm":
            print(f"error: {flag} only applies to the llm sweep",
                  file=sys.stderr)
            return 2
    if (args.placements or args.oversubs) and args.workload != "rack":
        print("error: --placements/--oversubs only apply to the rack "
              "sweep", file=sys.stderr)
        return 2
    if args.workload == "llm":
        return _sweep_llm(args)
    return _sweep_rack(args)


def cmd_systems(_args) -> int:
    """List the available system keys."""
    print(format_table("available systems", ["key"],
                       [[kind] for kind in SYSTEM_KINDS]))
    return 0


def cmd_run(args) -> int:
    """Build one registry scenario and print its report (with the naive
    run beside a serve preset's), its cluster-wide counters and the
    digests ``GOLDEN`` pins; unless ``--once``, build it again and exit 1
    on any digest drift. Without a name, list the scenarios."""
    from repro.harness.figures import report_rows
    from repro.harness.scenarios import SCENARIOS

    if args.scenario is None:
        print(format_table("scenarios (repro run <name>)",
                           ["name", "description"],
                           [[name, scenario.description]
                            for name, scenario in SCENARIOS.items()]))
        return 0
    scenario = SCENARIOS.get(args.scenario)
    if scenario is None:
        print(f"error: unknown scenario {args.scenario!r}; 'repro run' "
              "lists them", file=sys.stderr)
        return 2
    overrides = dict(kind=args.system, backend=args.backend, serve=args.spec,
                     net_faults=args.net_faults)
    try:
        run = scenario.build(**overrides)
        naive = (scenario.build(naive=True, **overrides)
                 if scenario.contrast and not args.once else None)
        again = None if args.once else scenario.build(**overrides)
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: {args.scenario} failed its audit: {exc}",
              file=sys.stderr)
        return 1

    print(f"{args.scenario}: {scenario.description} "
          f"({run.sim_us / 1000:.2f} simulated ms)")
    rows = report_rows(run.report)
    if naive is not None:
        preset, contrast = dict(rows), dict(report_rows(naive.report))
        print(format_table(
            f"report: preset vs naive ({scenario.contrast[0]})",
            ["field", "preset", "naive"],
            [[key, preset.get(key, "-"), contrast.get(key, "-")]
             for key in {**preset, **contrast}]))
    elif rows:
        print(format_table("report", ["field", "value"], rows))
    print(format_table("counters", ["counter", "value"], [
        [key, value]
        for key, value in sorted(run.target.metrics().counters.items())
        if not key.startswith("tenant.")]))
    trace_digest = getattr(run.report, "trace_digest", None)
    if trace_digest is not None:
        print(f"request-trace digest: {trace_digest}")
    print(f"metrics digest: {run.digest()}")
    if again is None:
        return 0
    if (again.digest() != run.digest()
            or getattr(again.report, "trace_digest", None) != trace_digest):
        print("error: determinism drift — the repeated run produced a "
              "different request trace or metrics digest", file=sys.stderr)
        return 1
    print("determinism: OK (two runs, identical digests)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run one DiLOS-reproduction experiment.")
    sub = parser.add_subparsers(dest="command", required=True)
    # Every kernel plus the figures' app-aware legend (figure, run, trace).
    figure_kinds = SYSTEM_KINDS + (APP_AWARE,)

    def boot_flags(p, backend="node"):
        p.add_argument("--net-faults", default=None, metavar="SPEC",
                       type=_fault_spec,
                       help="inject network faults and route IO through the "
                            "reliable transport; SPEC like "
                            "'drop=0.01,corrupt=0.005,seed=7' "
                            "(see docs/RELIABILITY.md)")
        p.add_argument("--backend", default=backend, metavar="SPEC",
                       type=_backend_spec,
                       help="remote memory backend: one of "
                            f"{', '.join(BACKEND_SPEC_EXAMPLES)} "
                            f"(default: {backend or 'the pinned one'})")

    sub.add_parser("systems", help="list system keys").set_defaults(
        func=cmd_systems)

    p = sub.add_parser(
        "figure", help="one paper table or figure: its system x ratio grid")
    p.add_argument("figure", nargs="?", default=None,
                   help="figure id, e.g. fig7a or table2-read; without "
                        "one, list the ids")
    p.add_argument("--systems", nargs="+", default=None,
                   choices=figure_kinds, metavar="KIND",
                   help="the grid's systems: 'repro systems' kinds or "
                        "dilos-app-aware (default: the figure's)")
    p.add_argument("--ratios", nargs="+", type=float, default=None,
                   help="local-memory ratios (default: the figure's)")
    p.add_argument("--size", type=int, default=None,
                   help="the figure's size parameter (see 'repro "
                        "figure')")
    boot_flags(p)
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="fan grid cells out across N worker processes "
                        "(results are identical to a serial run)")
    p.add_argument("--save", default=None, help="write results JSON here")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser(
        "sweep", help="llm P:D-split or rack placement grid on one kernel")
    p.add_argument("workload", choices=("llm", "rack"))
    p.add_argument("--systems", nargs="+", default=["dilos-readahead"],
                   choices=SYSTEM_KINDS,
                   help="the one kernel kind (default: dilos-readahead)")
    p.add_argument("--ratios", nargs="+", type=float, default=None,
                   help="llm only: local-memory ratios "
                        "(default: 0.25 0.5 1.0 1.5)")
    p.add_argument("--pd-splits", nargs="+", default=None, metavar="P:D",
                   help="llm only: prefill:decode tenant splits forming "
                        "the grid's second axis (default: 3:1 2:2 1:3)")
    p.add_argument("--placements", nargs="+", default=None,
                   metavar="POLICY",
                   help="rack only: pool placement policies forming the "
                        "grid's first axis (default: locality load)")
    p.add_argument("--oversubs", nargs="+", type=float, default=None,
                   metavar="X",
                   help="rack only: ToR oversubscription factors forming "
                        "the grid's second axis (default: 1 4)")
    p.add_argument("--size", type=int, default=None,
                   help="llm: requests per cell (default 12); "
                        "rack: tenants (default 8)")
    p.add_argument("--save", default=None, help="write results JSON here")
    p.add_argument("--backend", default="node", metavar="SPEC",
                   type=_backend_spec,
                   help="remote memory backend for every booted system: "
                        f"one of {', '.join(BACKEND_SPEC_EXAMPLES)}")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="fan grid cells out across N worker processes "
                        "(results are identical to a serial run)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "run", help="one named scenario: report, counters, digests")
    p.add_argument("scenario", nargs="?", default=None,
                   help="scenario name, e.g. flash_crowd or kv_failover; "
                        "without one, list the names")
    p.add_argument("--system", default=None, choices=figure_kinds,
                   metavar="KIND",
                   help="kernel kind for every system the scenario boots "
                        "(default: the pinned one)")
    p.add_argument("--spec", default=None, metavar="SERVESPEC",
                   type=_serve_spec,
                   help="replace a serving scenario's serve spec, e.g. "
                        "'poisson:rate=5k,clients=1m,slo=2ms' "
                        "(see docs/SERVING.md)")
    boot_flags(p, backend=None)
    p.add_argument("--once", action="store_true",
                   help="skip the naive contrast and the determinism "
                        "re-run")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "trace", help="run one figure cell with event tracing; export it")
    p.add_argument("--system", default="dilos-readahead",
                   choices=figure_kinds)
    p.add_argument("--ratio", type=float, default=0.125,
                   help="local memory as a fraction of the working set")
    boot_flags(p)
    p.add_argument("figure", nargs="?", default="table2-read",
                   help="figure id (see 'repro figure'; "
                        "default: table2-read)")
    p.add_argument("--size", type=int, default=None,
                   help="the figure's size parameter")
    p.add_argument("--capacity", type=int, default=1 << 18,
                   help="tracer ring-buffer capacity (events)")
    p.add_argument("--out", default=None,
                   help="write Chrome trace_event JSON here")
    p.add_argument("--jsonl", default=None, help="write JSONL events here")
    p.set_defaults(func=cmd_trace)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
