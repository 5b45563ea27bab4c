"""Command-line runner: single experiments without writing a script.

Examples::

    python -m repro systems
    python -m repro figure
    python -m repro figure fig7a --systems fastswap --ratios 0.125 1.0
    python -m repro figure table2-read --systems dilos-readahead --size 4
    python -m repro figure fig10d --systems dilos-app-aware
    python -m repro trace fig7b --system dilos-readahead --ratio 0.125

``figure`` boots a fresh simulated machine per cell of a paper table or
figure (:data:`repro.harness.figures.FIGURES`) and prints the grid; a
one-cell run also prints the workload's result and the paging-subsystem
counters.
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
# and the serving, KV, rack and repair commands boot without numpy.


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


def cmd_figure(args) -> int:
    """Run one paper table or figure: its system x ratio grid, or the
    part of it ``--systems``/``--ratios`` pick, at the figure's sizes."""
    from repro.harness import ratio_table
    from repro.harness.figures import FIGURES, run_figure
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
        rows = []
        for key, value in only.extra["result"].items():
            if isinstance(value, dict):
                rows.extend([f"{key}.{k}", v] for k, v in value.items())
            else:
                rows.append([key, value])
        print(format_table(f"{only.system} at {only.ratio:g}",
                           ["result", "value"], rows))
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
              "single-node AIFM port via 'repro llm --system aifm'",
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
    if args.pd_splits and args.workload != "llm":
        print("error: --pd-splits only applies to the llm sweep",
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


def _list_presets(command: str, title: str) -> int:
    """Print the registry scenarios ``repro <command>`` offers."""
    from repro.harness.scenarios import SCENARIOS

    print(format_table(title, ["name", "description"],
                       [[name, scenario.description]
                        for name, scenario in sorted(SCENARIOS.items())
                        if scenario.command == command]))
    return 0


def _determinism_gate(args, build, first) -> int:
    """Unless ``--once``, run the preset again; any drift in the request
    trace or metrics digest is a determinism failure (exit 1)."""
    if args.once:
        return 0
    again = build()
    if (again.report.trace_digest != first.report.trace_digest
            or again.digest() != first.digest()):
        print("error: determinism drift — the repeated run produced a "
              "different request trace or metrics digest", file=sys.stderr)
        return 1
    print("determinism: OK (two runs, identical digests)")
    return 0


def cmd_tenants(args) -> int:
    """Run a multi-tenant scenario: N kernels round-robin on one shared
    clock and memory backend, reporting per-tenant and aggregate metrics
    plus the final deterministic digest."""
    from repro.harness.scenarios import preset

    if args.list:
        return _list_presets("tenants", "preset scenarios")
    try:
        run = preset("tenants", args.scenario).build(
            backend=args.backend, quantum_us=args.quantum_us,
            kind=args.system, max_quanta=args.max_quanta)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cluster, snapshot = run.target, run.report
    print(f"{args.scenario} on {cluster.backend_label}: "
          f"{len(cluster.tenants)} tenants, "
          f"{int(snapshot.value('cluster.quanta'))} quanta, "
          f"{cluster.clock.now / 1000:.2f} simulated ms, "
          f"fairness {snapshot.value('cluster.fairness_jain'):.3f}")
    rows = []
    for tenant in cluster.tenants:
        rows.append([
            tenant.name,
            tenant.ops,
            tenant.quanta,
            f"{tenant.run_us / 1000:.2f}",
            int(snapshot.value(f"tenant.{tenant.name}.fault.major")),
            int(snapshot.value(f"tenant.{tenant.name}.prefetch.issued")),
            int(snapshot.value(f"tenant.{tenant.name}.net.bytes_read")),
            "yes" if tenant.done else "no",
        ])
    print(format_table(
        "tenants",
        ["tenant", "ops", "quanta", "run_ms", "major_faults", "prefetches",
         "net_rd_bytes", "done"], rows))
    used = (snapshot.value("backend.total_slots")
            - snapshot.value("backend.free_slots"))
    print(format_table("shared backend", ["metric", "value"], [
        ["slots used", f"{int(used)}/{int(snapshot.value('backend.total_slots'))}"],
        ["capacity (MiB)", f"{snapshot.value('backend.capacity_bytes') / MIB:.0f}"],
    ]))
    print(f"metrics digest: {snapshot.digest()}")
    return 0


def _serve_spec(spec: str) -> str:
    """argparse type for --spec: validate the serve spec, return it."""
    from repro.serve import coerce_serve_spec
    try:
        coerce_serve_spec(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return spec


def cmd_serve(args) -> int:
    """Run an open-loop serving preset: deterministic arrivals through
    admission control and the load balancer into service tenants, with
    SLO accounting in canonical ``serve.*`` metrics. The preset runs
    twice; any drift in the request-trace or metrics digest is a
    determinism failure (non-zero exit). A contrast run with the naive
    configuration (no admission / load-blind routing, applied on top of
    ``--spec`` when given) prints alongside."""
    from repro.harness.scenarios import preset

    if args.list:
        return _list_presets("serve", "serving presets")

    def one(naive: bool = False):
        return scenario.build(naive=naive, backend=args.backend,
                              kind=args.system, serve=args.spec)

    try:
        scenario = preset("serve", args.preset)
        first = one()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cluster, report = first.target, first.report
    spec = report.spec
    snap = report.snapshot
    hist = snap.histograms.get("serve.latency_us", {})
    completed = snap.value("serve.completed")
    violation_rate = (snap.value("serve.slo_violations") / completed
                      if completed else 0.0)
    print(f"{args.preset} on {cluster.backend_label}: "
          f"{len(cluster.tenants)} service tenants, {spec.to_spec()}")
    print(format_table("serve.* (canonical metrics)", ["metric", "value"], [
        ["offered", int(snap.value("serve.offered"))],
        ["admitted", int(snap.value("serve.admitted"))],
        ["shed", int(snap.value("serve.shed"))],
        ["completed", int(completed)],
        ["errors", int(snap.value("serve.errors"))],
        ["goodput (in-SLO ok)", int(snap.value("serve.goodput"))],
        ["SLO violations", int(snap.value("serve.slo_violations"))],
        ["violation rate", f"{violation_rate:.4f}"],
        ["p50 latency (us)", f"{hist.get('p50', 0.0):.2f}"],
        ["p99 latency (us)", f"{hist.get('p99', 0.0):.2f}"],
        ["p999 latency (us)", f"{hist.get('p999', 0.0):.2f}"],
        ["offered rps", f"{snap.value('serve.offered_rps'):,.0f}"],
        ["goodput rps", f"{snap.value('serve.goodput_rps'):,.0f}"],
    ] + ([
        ["TTFT p99 (us)", f"{report.ttft.get('p99', 0.0):.2f}"],
        ["TPOT p99 (us)", f"{report.tpot.get('p99', 0.0):.2f}"],
    ] if report.ttft else [])))
    print(format_table(
        "requests routed per tenant", ["tenant", "served"],
        [[name, served] for name, served in report.per_tenant.items()]))

    if not args.no_contrast:
        contrast_label = scenario.contrast[0]
        naive_report = one(naive=True).report
        naive_hist = naive_report.snapshot.histograms.get(
            "serve.latency_us", {})
        print(format_table(
            f"preset vs naive ({contrast_label})",
            ["metric", "preset", "naive"], [
                ["p50 (us)", f"{hist.get('p50', 0.0):.2f}",
                 f"{naive_hist.get('p50', 0.0):.2f}"],
                ["p99 (us)", f"{hist.get('p99', 0.0):.2f}",
                 f"{naive_hist.get('p99', 0.0):.2f}"],
                ["p999 (us)", f"{hist.get('p999', 0.0):.2f}",
                 f"{naive_hist.get('p999', 0.0):.2f}"],
                ["violation rate", f"{violation_rate:.4f}",
                 f"{naive_report.violation_rate:.4f}"],
                ["shed", report.shed, naive_report.shed],
                ["goodput rps", f"{report.goodput_rps:,.0f}",
                 f"{naive_report.goodput_rps:,.0f}"],
            ] + ([
                ["TTFT p99 (us)", f"{report.ttft.get('p99', 0.0):.2f}",
                 f"{naive_report.ttft.get('p99', 0.0):.2f}"],
            ] if report.ttft else [])))

    print(f"request-trace digest: {report.trace_digest}")
    print(f"metrics digest: {snap.digest()}")
    return _determinism_gate(args, one, first)


def cmd_llm(args) -> int:
    """LLM inference with the KV cache in far memory — single-node
    closed-loop by default, or prefill/decode disaggregation across
    cluster tenants with ``--pd-split P:D``. Both modes decode the
    identical token stream (the compatibility invariant)."""
    from dataclasses import asdict

    from repro.apps.llm import PD_CONFIG, run_pd
    from repro.harness.scenarios import llm

    if args.pd_split is not None:
        try:
            result = run_pd(kind=args.system, ratio=args.ratio,
                            split=args.pd_split, backend=args.backend,
                            n_requests=args.requests,
                            net_faults=args.net_faults)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"{args.system} P:D {result.split} on {result.backend}: "
              f"{result.decoded_tokens} tokens decoded across "
              f"{result.requests} requests in "
              f"{result.makespan_us / 1000:.2f} simulated ms "
              f"({result.kv_transfer_bytes // 1024} KiB KV transferred)")
        print(format_table(
            "per-tenant", ["tenant", "ops", "run_ms", "major_faults"],
            [[name, int(row["ops"]), f"{row['run_us'] / 1000:.2f}",
              int(row["major_faults"])]
             for name, row in sorted(result.per_tenant.items())]))
        print(f"token digest: {result.token_digest}")
        print(f"kv digest: {result.kv_digest}")
        return 0

    run = llm(args.system, args.ratio, backend=args.backend,
              config=asdict(PD_CONFIG), net_faults=args.net_faults,
              n_requests=args.requests, prompt_min=24, prompt_max=56,
              out_min=8, out_max=16)
    result = run.report
    mean_ttft = sum(result.ttft_us) / len(result.ttft_us)
    mean_tpot = sum(result.tpot_us) / len(result.tpot_us)
    print(f"{run.target.name}: {result.decoded_tokens} tokens decoded "
          f"({result.prefill_tokens} prefilled) across {result.requests} "
          f"requests in {result.elapsed_us / 1000:.2f} simulated ms, "
          f"mean TTFT {mean_ttft:.1f} us, mean TPOT {mean_tpot:.1f} us")
    _print_counters(result.metrics.counters)
    print(f"token digest: {result.token_digest}")
    print(f"kv digest: {result.kv_digest}")
    return 0


def cmd_repair(args) -> int:
    """Run the node-rejoin repair demo: degraded writes while a member
    is down, journal-protected rejoin, paced resilver, at-rest scrub
    repair, then a second failure with a full byte-exact verification."""
    from repro.harness.scenarios import SCENARIOS

    try:
        result = SCENARIOS["repair_demo"].build(
            backend=args.backend, kind=args.system,
            repair=args.repair).report
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{result['kind']} on {result['backend']}: "
          f"{result['verified_pages']} pages verified byte-exact after "
          f"rejoin + second failure ({result['time_us'] / 1000:.2f} "
          "simulated ms)")
    print(format_table("repair lifecycle", ["phase", "value"], [
        ["pages journaled while down", result["stale_after_degraded"]],
        ["resilver time (ms)", f"{result['resilver_us'] / 1000:.2f}"],
        ["scrub detect+repair time (ms)", f"{result['scrub_us'] / 1000:.2f}"],
    ]))
    rows = [[key, int(value)]
            for key, value in sorted(result["counters"].items())]
    print(format_table("cluster/repair/scrub counters",
                       ["counter", "value"], rows))
    print(f"metrics digest: {result['digest']}")
    return 0


def cmd_kv(args) -> int:
    """Run the replicated KV failover preset: two KV tenants over a
    redundant backend with a lossy wire, the lease-holding member killed
    mid-run and rejoined while serving continues. Prints the serving
    tail plus the availability/consistency ledger; the run replays once
    and any digest drift is a determinism failure."""
    from repro.harness.scenarios import SCENARIOS

    def one():
        return SCENARIOS["kv_failover"].build(
            backend=args.backend, kind=args.system, requests=args.requests,
            lease_us=args.lease_us, kill_at_us=args.kill_at,
            rejoin_at_us=args.rejoin_at)

    try:
        first = one()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cluster, report = first.target, first.report
    snap = cluster.metrics()
    lost = int(snap.value("kv.lost_updates"))
    print(f"kv over {args.backend} ({args.system}): "
          f"{report.completed}/{report.offered} requests, "
          f"{int(snap.value('kv.failovers'))} failovers, "
          f"{lost} lost updates")
    print(format_table("serving tail", ["metric", "value"], [
        ["offered", report.offered],
        ["completed", report.completed],
        ["p50 latency (us)", f"{report.latency.get('p50', 0.0):.2f}"],
        ["p99 latency (us)", f"{report.latency.get('p99', 0.0):.2f}"],
        ["goodput rps", f"{report.goodput_rps:,.0f}"],
    ]))
    print(format_table("availability / consistency", ["metric", "value"], [
        ["gets / sets / deletes",
         f"{int(snap.value('kv.gets'))} / {int(snap.value('kv.sets'))} / "
         f"{int(snap.value('kv.deletes'))}"],
        ["failovers", int(snap.value("kv.failovers"))],
        ["failover latency (us)", int(snap.value("kv.failover_us"))],
        ["unavailability (us)", int(snap.value("kv.unavail_us"))],
        ["rejects while unavailable", int(snap.value("kv.unavail_rejects"))],
        ["rejected writes", int(snap.value("kv.rejected_writes"))],
        ["lease renewals", int(snap.value("kv.lease_renewals"))],
        ["stale candidates skipped",
         int(snap.value("kv.stale_candidates_skipped"))],
        ["pages resilvered", int(snap.value("repair.pages_resilvered"))],
        ["lost updates", lost],
    ]))
    print(f"request-trace digest: {report.trace_digest}")
    print(f"metrics digest: {snap.digest()}")
    if lost:
        print("error: lost updates detected — acknowledged writes were "
              "not durable across the failover", file=sys.stderr)
        return 1
    return _determinism_gate(args, one, first)


def cmd_rack(args) -> int:
    """Run one rack-scale serving pass: tenants striped over an explicit
    topology (per-link bandwidth, ToR oversubscription) drawing pages
    from the placement-aware pool. Prints the serving tail, the fabric
    link report and the pool's placement-outcome metrics; the run
    replays once and any digest drift is a determinism failure."""
    from repro.harness.scenarios import SCENARIOS
    from repro.mem.pool import PLACEMENTS

    if args.placement not in PLACEMENTS:
        print(f"error: unknown placement {args.placement!r}; pick from "
              f"{list(PLACEMENTS)}", file=sys.stderr)
        return 2

    def one():
        return SCENARIOS["rack"].build(
            tenants=args.tenants, topology=args.topology,
            placement=args.placement, kind=args.system, serve=args.spec)

    try:
        first = one()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cluster, report = first.target, first.report
    snap = report.snapshot
    topo = cluster.topology
    print(f"{topo.spec()} / {cluster.pool}: "
          f"{len(cluster.tenants)} tenants, {report.spec.to_spec()}")
    print(format_table("serving tail", ["metric", "value"], [
        ["offered", report.offered],
        ["completed", report.completed],
        ["p50 latency (us)", f"{report.latency.get('p50', 0.0):.2f}"],
        ["p99 latency (us)", f"{report.latency.get('p99', 0.0):.2f}"],
        ["violation rate", f"{report.violation_rate:.4f}"],
        ["goodput rps", f"{report.goodput_rps:,.0f}"],
    ]))
    print(format_table("pool placement outcome", ["metric", "value"], [
        ["allocations", int(snap.value("pool.alloc"))],
        ["spills (off-home)", int(snap.value("pool.spills"))],
        ["stranded slots", int(snap.value("pool.stranded_slots"))],
        ["fragmentation imbalance",
         f"{snap.value('pool.frag_imbalance'):.3f}"],
    ]))
    interesting = [(name, row) for name, row
                   in cluster.link_report().items() if row["bytes"] > 0]
    print(format_table(
        "fabric links (nonzero traffic)",
        ["link", "MiB", "queue_us", "util"],
        [[name, f"{row['bytes'] / MIB:.1f}", f"{row['queue_us']:.1f}",
          f"{row['util']:.3f}"] for name, row in interesting]))
    print(f"request-trace digest: {report.trace_digest}")
    print(f"metrics digest: {snap.digest()}")
    return _determinism_gate(args, one, first)


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run one DiLOS-reproduction experiment.")
    sub = parser.add_subparsers(dest="command", required=True)
    # The figures' systems: every kernel plus the app-aware legend.
    figure_kinds = SYSTEM_KINDS + (APP_AWARE,)

    def common(p, systems=SYSTEM_KINDS):
        p.add_argument("--system", default="dilos-readahead",
                       choices=systems)
        p.add_argument("--ratio", type=float, default=0.125,
                       help="local memory as a fraction of the working set")
        boot_flags(p)

    def boot_flags(p):
        p.add_argument("--net-faults", default=None, metavar="SPEC",
                       type=_fault_spec,
                       help="inject network faults and route IO through the "
                            "reliable transport; SPEC like "
                            "'drop=0.01,corrupt=0.005,seed=7' "
                            "(see docs/RELIABILITY.md)")
        p.add_argument("--backend", default="node", metavar="SPEC",
                       type=_backend_spec,
                       help="remote memory backend: one of "
                            f"{', '.join(BACKEND_SPEC_EXAMPLES)} "
                            "(default: node)")

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
        "tenants",
        help="co-schedule tenant workloads on one shared backend")
    p.add_argument("scenario", nargs="?", default="kmeans+redis",
                   help="preset scenario name (see --list)")
    p.add_argument("--list", action="store_true",
                   help="list preset scenarios and exit")
    p.add_argument("--system", default=None, choices=SYSTEM_KINDS,
                   help="kernel kind for every tenant "
                        "(default: the preset's choice)")
    p.add_argument("--backend", default=None, metavar="SPEC",
                   type=_backend_spec,
                   help="shared backend override: one of "
                        f"{', '.join(BACKEND_SPEC_EXAMPLES)}")
    p.add_argument("--quantum-us", type=float, default=None,
                   help="scheduling time slice in simulated us")
    p.add_argument("--max-quanta", type=int, default=None,
                   help="stop after this many total time slices")
    p.set_defaults(func=cmd_tenants)

    p = sub.add_parser(
        "serve",
        help="open-loop serving preset with SLO metrics + determinism gate")
    p.add_argument("--preset", default="flash_crowd",
                   help="serving preset name (see --list; "
                        "default: flash_crowd)")
    p.add_argument("--list", action="store_true",
                   help="list serving presets and exit")
    p.add_argument("--system", default=None, choices=SYSTEM_KINDS,
                   help="kernel kind for every service tenant "
                        "(default: the preset's choice)")
    p.add_argument("--backend", default=None, metavar="SPEC",
                   type=_backend_spec,
                   help="shared backend override: one of "
                        f"{', '.join(BACKEND_SPEC_EXAMPLES)}")
    p.add_argument("--spec", default=None, metavar="SERVESPEC",
                   type=_serve_spec,
                   help="replace the preset's serve spec, e.g. "
                        "'poisson:rate=5k,clients=1m,slo=2ms' "
                        "(see docs/SERVING.md)")
    p.add_argument("--no-contrast", action="store_true",
                   help="skip the naive contrast run")
    p.add_argument("--once", action="store_true",
                   help="skip the determinism re-run (faster, ungated)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "rack",
        help="rack-scale serving: pooled memory + link contention")
    p.add_argument("--tenants", type=int, default=8,
                   help="service tenants striped over the compute nodes")
    p.add_argument("--topology", default=None, metavar="SPEC",
                   help="rack topology spec, e.g. "
                        "'rack:compute=4,mem=4,link=100,oversub=4' "
                        "(see docs/TOPOLOGY.md)")
    p.add_argument("--placement", default="locality",
                   help="pool placement policy: locality, load, pack or "
                        "interleave (default: locality)")
    p.add_argument("--system", default="dilos-readahead",
                   choices=SYSTEM_KINDS)
    p.add_argument("--spec", default=None, metavar="SERVESPEC",
                   type=_serve_spec,
                   help="replace the preset's serve spec "
                        "(see docs/SERVING.md)")
    p.add_argument("--once", action="store_true",
                   help="skip the determinism re-run (faster, ungated)")
    p.set_defaults(func=cmd_rack)

    p = sub.add_parser(
        "kv",
        help="replicated KV failover: lease election, kill + resilver")
    p.add_argument("--system", default="dilos-readahead",
                   choices=SYSTEM_KINDS)
    p.add_argument("--backend", default="replicated:3", metavar="SPEC",
                   type=_backend_spec,
                   help="redundant backend: replicated:N or parity:K+1 "
                        "(default: replicated:3)")
    p.add_argument("--requests", type=int, default=700,
                   help="open-loop requests offered across the tenants")
    p.add_argument("--lease-us", type=float, default=120.0,
                   help="primary lease length in simulated us")
    p.add_argument("--kill-at", type=float, default=500.0, metavar="US",
                   help="simulated time at which the lease holder dies")
    p.add_argument("--rejoin-at", type=float, default=800.0, metavar="US",
                   help="simulated time at which the dead member rejoins")
    p.add_argument("--once", action="store_true",
                   help="skip the determinism re-run (faster, ungated)")
    p.set_defaults(func=cmd_kv)

    p = sub.add_parser(
        "repair",
        help="node-rejoin demo: degraded writes, resilver, scrub, verify")
    p.add_argument("--system", default="dilos-readahead",
                   choices=SYSTEM_KINDS)
    p.add_argument("--backend", default="replicated:2", metavar="SPEC",
                   type=_backend_spec,
                   help="redundant backend: replicated:N or parity:K+1 "
                        "(default: replicated:2)")
    p.add_argument("--repair", default=("resilver_period=200,"
                                        "resilver_batch=32,"
                                        "scrub_period=1000,scrub_batch=128"),
                   metavar="SPEC",
                   help="repair policy spec, e.g. 'resilver_period=200,"
                        "scrub_period=1000' (see docs/RELIABILITY.md)")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser(
        "trace", help="run one figure cell with event tracing; export it")
    common(p, systems=figure_kinds)
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

    p = sub.add_parser(
        "llm", help="LLM inference: KV cache tiered over far memory")
    common(p)
    p.add_argument("--requests", type=int, default=12,
                   help="inference requests in the seeded stream")
    p.add_argument("--pd-split", default=None, metavar="P:D",
                   help="disaggregate: P prefill + D decode tenants on "
                        "a shared cluster (e.g. 3:1)")
    p.set_defaults(func=cmd_llm)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
