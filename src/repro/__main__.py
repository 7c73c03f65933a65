"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``                     show the 25 synthetic applications
``run --core X --app Y``     simulate one (core, app) pair and print stats
``compare --app Y``          all Table I cores on one application
``trace --core X --app Y``   instrumented run: events, metrics, Perfetto
                             export, simulator self-profile
``explain Y --core X``       cycle accounting: CPI stack, critical path,
                             and (with ``--vs Z``) a schedule diff
``figure figN``              regenerate one figure of the paper
``sweep [out.txt]``          all figures, checkpointed + failure-tolerant
                             (``--workers N --store DIR`` parallelises
                             through the simulation service pool + store)
``serve``                    run the simulation service (HTTP JSON API;
                             journaled, drains gracefully on SIGTERM)
``store scrub``              integrity-walk a result store, quarantine
                             mismatches (``--repair`` recomputes them)
``submit``                   submit jobs to a running service
"""

from __future__ import annotations

import argparse
import sys

from repro.common.params import (
    make_casino_config,
    make_freeway_config,
    make_ino_config,
    make_lsc_config,
    make_ooo_config,
    make_specino_config,
)
from repro.harness.runner import Runner
from repro.harness.tables import format_table
from repro.workloads.suite import SUITE, get_profile

_CORES = {
    "ino": make_ino_config,
    "casino": make_casino_config,
    "ooo": make_ooo_config,
    "lsc": make_lsc_config,
    "freeway": make_freeway_config,
    "specino": make_specino_config,
}

_FIGURES = {
    "fig2": "repro.experiments.fig2_specino_potential",
    "fig6": "repro.experiments.fig6_ipc",
    "fig7": "repro.experiments.fig7_renaming",
    "fig8": "repro.experiments.fig8_memdisambig",
    "fig9": "repro.experiments.fig9_area_energy",
    "fig10": "repro.experiments.fig10_design_space",
    "fig11": "repro.experiments.fig11_wider_issue",
}


def _cmd_list(_args) -> int:
    rows = [[p.name, p.n_instrs, p.footprint_kib,
             f"{p.frac_mem:.2f}", f"{p.frac_fp:.2f}"]
            for p in SUITE.values()]
    print(format_table(["app", "instrs", "footprint KiB", "mem frac",
                        "fp frac"], rows))
    return 0


def _load_cfg(args):
    if getattr(args, "config", None):
        from repro.common.config_io import load_core_config
        return load_core_config(args.config)
    return _CORES[args.core]()


def _result_dict(res, n_instrs: int, warmup: int, profile=None,
                 runner=None) -> dict:
    """Machine-readable record of one RunResult (with provenance).

    Carries the fast-forward telemetry (spans jumped, cycles elided by
    the quiescence skipper) and, when the producing ``runner`` is
    passed, its trace-cache hit/miss counters — observability fields
    only, never part of the counter digest.
    """
    from repro.obs.provenance import run_manifest
    doc = {
        "core": res.core.name, "app": res.app, "ipc": res.ipc,
        "n_instrs": n_instrs, "warmup": warmup,
        "energy_j": res.energy.total_j, "epi_nj": res.energy.epi_nj,
        "ff_spans": res.ff_spans,
        "ff_skipped_cycles": res.ff_skipped_cycles,
        "counters": res.stats.as_dict(),
        "manifest": run_manifest(res.core, profile, stats=res.stats),
    }
    if runner is not None:
        doc["trace_cache"] = runner.trace_cache_stats()
    return doc


def _render_simulation_error(exc) -> str:
    """Human-readable rendering of SimulationError.details for stderr.

    Users of ``run``/``compare`` get the structured diagnostics (which
    check fired, at what cycle, the core's debug snapshot) instead of a
    raw traceback, and scripts get a non-zero exit status.
    """
    details = dict(getattr(exc, "details", {}) or {})
    lines = [f"error: simulation failed: {exc}"]
    for field in ("core", "check", "cycle"):
        if field in details:
            lines.append(f"  {field}: {details.pop(field)}")
    debug = details.pop("debug", None)
    for key in sorted(details):
        lines.append(f"  {key}: {details[key]}")
    if debug:
        lines.append(f"  debug: {debug}")
    return "\n".join(lines)


def _cmd_run(args) -> int:
    from repro.engine.core_base import SimulationError
    cfg = _load_cfg(args)
    runner = Runner(n_instrs=args.n, warmup=args.warmup,
                    sanitize=True if args.sanitize else None)
    profile = get_profile(args.app)
    try:
        res = runner.run(cfg, profile)
    except SimulationError as exc:
        print(_render_simulation_error(exc), file=sys.stderr)
        return 3
    stats = res.stats
    print(f"{args.core} on {args.app}: IPC {res.ipc:.3f} "
          f"({int(stats.committed)} instrs, {int(stats.cycles)} cycles)")
    print(f"energy {res.energy.total_j * 1e6:.2f} uJ "
          f"({res.energy.epi_nj:.2f} nJ/inst)")
    interesting = ("issued_spec", "issued_iq", "siq_passes", "sq_searches",
                   "osca_search_skips", "mem_order_violations",
                   "l1d_misses", "dram_accesses", "bp_mispredicts")
    rows = [[k, int(stats.get(k))] for k in interesting if k in stats]
    if rows:
        print(format_table(["counter", "value"], rows))
    if args.json:
        from repro.harness.export import write_json
        write_json(_result_dict(res, args.n, args.warmup, profile,
                                runner=runner),
                   args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_compare(args) -> int:
    from repro.engine.core_base import SimulationError
    from repro.obs.accounting import format_stack_table
    runner = Runner(n_instrs=args.n, warmup=args.warmup,
                    sanitize=True if args.sanitize else None,
                    accounting=True)
    profile = get_profile(args.app)
    rows = []
    base = None
    results = {}
    reports = {}
    stalls = {}
    for name in ("ino", "lsc", "freeway", "casino", "ooo"):
        try:
            res = runner.run(_CORES[name](), profile)
        except SimulationError as exc:
            print(_render_simulation_error(exc), file=sys.stderr)
            return 3
        if base is None:
            base = res
        rows.append([name, res.ipc, res.ipc / base.ipc,
                     res.energy.total_j / base.energy.total_j])
        results[name] = _result_dict(res, args.n, args.warmup, profile,
                                     runner=runner)
        results[name]["speedup"] = res.ipc / base.ipc
        if res.accounting:
            reports[name] = results[name]["accounting"] = res.accounting
        # Post-warmup, like the IPC column and the CPI stack.
        stalls[name] = results[name]["stalls"] = {
            k: v for k, v in res.stats.counters.items() if "stall" in k}
    print(f"{args.app} ({profile.n_instrs} instrs)")
    print(format_table(["core", "IPC", "speedup", "energy (rel)"], rows))
    if reports:
        headers, stack_rows = format_stack_table(reports)
        print("\nCPI stack (cycles per committed instruction):")
        print(format_table(headers, stack_rows, float_fmt="{:.3f}"))
    keys = sorted({k for per_core in stalls.values() for k in per_core})
    if keys:
        stall_rows = [[name] + [int(stalls[name].get(k, 0)) for k in keys]
                      for name in stalls]
        print("\nstall counters (after warmup):")
        print(format_table(["core"] + keys, stall_rows))
    if args.json:
        from repro.harness.export import write_json
        write_json({"app": args.app, "baseline": "ino", "cores": results},
                   args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_trace_service(args) -> int:
    """Render a service journal's per-job spans as a Perfetto trace:
    per-job lifecycle slices with queued/running segments, instant
    markers for lease reclaims and worker deaths, and queue-depth /
    jobs-running counter tracks."""
    from repro.harness.export import write_json
    from repro.obs.perfetto import build_service_trace
    from repro.obs.telemetry import TERMINAL_SPAN_EVENTS, fold_spans
    from repro.service.journal import Journal

    journal = Journal(args.service, sync="off")
    try:
        spans = fold_spans(journal.records()).spans()
    finally:
        journal.close()
    if not spans:
        print(f"error: no job spans in {args.service} (empty journal, "
              "or one written before journal schema 2)", file=sys.stderr)
        return 1
    terminal = sum(1 for span in spans.values()
                   if any(e["ev"] in TERMINAL_SPAN_EVENTS
                          for e in span["events"]))
    out = args.perfetto or "service-trace.json"
    write_json(build_service_trace(spans), out)
    print(f"{len(spans)} job span(s), {terminal} with a terminal event")
    print(f"wrote {out} (open in https://ui.perfetto.dev)")
    return 0


def _cmd_trace(args) -> int:
    """Instrumented single run: event tracing, interval metrics, Perfetto
    export and simulator self-profiling (all read-only — the simulated
    timing matches an uninstrumented ``run``)."""
    import time

    if args.service:
        return _cmd_trace_service(args)

    from repro.cores import build_core
    from repro.harness.tables import format_table as _table
    from repro.obs.events import Tracer
    from repro.obs.metrics import MetricsSampler
    from repro.obs.perfetto import build_trace
    from repro.obs.profile import SelfProfiler
    from repro.obs.provenance import run_manifest
    from repro.workloads.generator import SyntheticWorkload

    cfg = _load_cfg(args)
    profile = get_profile(args.app)
    kinds = args.kinds.split(",") if args.kinds else None
    if kinds:
        from repro.obs.events import EVENT_KINDS
        unknown = sorted(set(kinds) - set(EVENT_KINDS))
        if unknown:
            print(f"error: unknown event kind(s): {', '.join(unknown)}\n"
                  f"valid kinds: {', '.join(EVENT_KINDS)}", file=sys.stderr)
            return 2
    trace = SyntheticWorkload(profile).generate(args.n)
    seq_min = seq_max = None
    if args.seq_range:
        lo, _, hi = args.seq_range.partition(":")
        seq_min = int(lo) if lo else None
        seq_max = int(hi) if hi else None
    tracer = Tracer(capacity=args.events, kinds=kinds,
                    seq_min=seq_min, seq_max=seq_max)
    sampler = MetricsSampler(interval=args.interval)
    profiler = SelfProfiler() if args.profile else None
    core = build_core(cfg)
    start = time.perf_counter()
    stats = core.run(trace, warmup=args.warmup, record_schedule=True,
                     sanitize=True if args.sanitize else None,
                     tracer=tracer, sampler=sampler, profiler=profiler)
    wall = time.perf_counter() - start
    manifest = run_manifest(cfg, profile, stats=stats, wall_time=wall)
    print(f"{cfg.name} on {args.app}: IPC {stats.ipc:.3f} "
          f"({int(stats.committed)} instrs, {int(stats.cycles)} cycles, "
          f"{wall:.2f}s host)")
    print(f"provenance: config {manifest['config_hash']} "
          f"seed {manifest['trace_seed']} git {manifest['git_rev']} "
          f"counters {manifest['counter_digest']}")
    rows = [[kind, count] for kind, count in sorted(tracer.counts.items())]
    print(_table(["event", "count"], rows) if rows else "(no events)")
    if tracer.dropped:
        print(f"(ring buffer kept {len(tracer)} of {tracer.emitted} "
              f"events; oldest {tracer.dropped} dropped)")
    if args.perfetto:
        from repro.harness.export import write_json
        doc = build_trace(core.schedule, tracer=tracer, sampler=sampler,
                          core_name=cfg.name)
        doc["otherData"]["manifest"] = manifest
        write_json(doc, args.perfetto)
        print(f"wrote {args.perfetto} "
              f"(open in https://ui.perfetto.dev)")
    if args.metrics:
        from repro.harness.export import write_json
        report = sampler.report()
        report["manifest"] = manifest
        write_json(report, args.metrics)
        print(f"wrote {args.metrics}")
    if profiler is not None:
        print(profiler.report())
    return 0


def _cmd_explain(args) -> int:
    """Explain where the cycles go: live CPI stack, post-mortem critical
    path, per-edge-type slack — and, with ``--vs``, an instruction-aligned
    schedule diff against a second core on the *same* trace."""
    from repro.cores import build_core
    from repro.obs.accounting import COMPONENTS, CycleAccounting, \
        format_stack_table
    from repro.obs.critpath import critical_path, edge_slack
    from repro.obs.schedulediff import diff_schedules, format_diff_report
    from repro.workloads.generator import SyntheticWorkload

    profile = get_profile(args.app)
    trace = SyntheticWorkload(profile).generate(args.n)

    def simulate(core_name):
        core = build_core(_CORES[core_name]())
        acct = CycleAccounting()
        stats = core.run(trace, warmup=args.warmup, record_schedule=True,
                         sanitize=True if args.sanitize else None,
                         accounting=acct)
        hit = core.hier.l1d.cfg.latency
        return {"stats": stats, "schedule": core.schedule,
                "accounting": acct.report(), "hit_latency": hit}

    runs = {args.core: simulate(args.core)}
    if args.vs:
        if args.vs == args.core:
            print("error: --vs core must differ from --core",
                  file=sys.stderr)
            return 2
        runs[args.vs] = simulate(args.vs)

    for name, run in runs.items():
        stats = run["stats"]
        print(f"{name} on {args.app}: IPC {stats.ipc:.3f} "
              f"({int(stats.committed)} instrs, {int(stats.cycles)} cycles)")
    reports = {name: run["accounting"] for name, run in runs.items()}
    headers, stack_rows = format_stack_table(reports)
    print("\nCPI stack (cycles per committed instruction):")
    print(format_table(headers, stack_rows, float_fmt="{:.3f}"))

    for name, run in runs.items():
        run["critical_path"] = cp = critical_path(
            run["schedule"], hit_latency=run["hit_latency"])
        run["edge_slack"] = slack = edge_slack(
            run["schedule"], hit_latency=run["hit_latency"])
        print(f"\n{name} critical path: {cp['length']} cycles, "
              f"{len(cp['path'])} instructions")
        rows = [[edge, cp["breakdown"][edge],
                 100.0 * cp["breakdown"][edge] / max(cp["length"], 1)]
                for edge in sorted(cp["breakdown"],
                                   key=cp["breakdown"].get, reverse=True)
                if cp["breakdown"][edge]]
        print(format_table(["edge type", "cycles", "% of path"], rows,
                           float_fmt="{:.1f}"))
        hot = sorted(cp["path"],
                     key=lambda s: s["exec"] + s["memory"] + s["order_wait"],
                     reverse=True)[:args.top]
        if hot:
            print(f"costliest path instructions (top {len(hot)}):")
            print(format_table(
                ["inst", "issue", "done", "exec", "mem", "order wait", "via"],
                [[s["label"], s["issue_at"], s["done_at"], s["exec"],
                  s["memory"], s["order_wait"], s["via"]] for s in hot]))
        slack_rows = [[edge, slack[edge]] for edge in sorted(
            slack, key=slack.get, reverse=True) if slack[edge]]
        print(f"{name} whole-schedule slack by edge type:")
        print(format_table(["edge type", "cycles"], slack_rows))

    diff = None
    if args.vs:
        diff = diff_schedules(runs[args.core]["schedule"],
                              runs[args.vs]["schedule"],
                              name_a=args.core, name_b=args.vs,
                              top=args.top,
                              hit_latency=runs[args.core]["hit_latency"])
        print()
        print(format_diff_report(diff))

    if args.json:
        from repro.harness.export import write_json
        doc = {"app": args.app, "n_instrs": args.n, "warmup": args.warmup,
               "core": args.core, "vs": args.vs,
               "cores": {name: {"ipc": run["stats"].ipc,
                                "cycles": int(run["stats"].cycles),
                                "accounting": run["accounting"],
                                "critical_path": run["critical_path"],
                                "edge_slack": run["edge_slack"]}
                         for name, run in runs.items()}}
        if diff is not None:
            doc["diff"] = diff
        write_json(doc, args.json)
        print(f"wrote {args.json}")
    if args.csv:
        import csv
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["core", "component", "cycles", "fraction",
                             "cpi_contribution"])
            for name, run in runs.items():
                report = run["accounting"]
                for comp in COMPONENTS:
                    writer.writerow([
                        name, comp, report["components"][comp],
                        f"{report['fractions'][comp]:.6f}",
                        f"{report['cpi_stack'][comp]:.6f}"])
        print(f"wrote {args.csv}")
    return 0


def _cmd_characterize(args) -> int:
    from repro.workloads.characterize import characterize
    from repro.workloads.generator import SyntheticWorkload
    profile = get_profile(args.app)
    trace = SyntheticWorkload(profile).generate(args.n)
    measured = characterize(trace)
    rows = [[key, value] for key, value in measured.as_dict().items()]
    print(f"{args.app} ({args.n} instructions)")
    print(format_table(["metric", "value"], rows, float_fmt="{:.4f}"))
    return 0


def _cmd_figure(args) -> int:
    import importlib
    module = importlib.import_module(_FIGURES[args.name])
    if args.json:
        from repro.harness.export import write_json
        if args.name == "fig10":
            results = {"iq_sweep": module.run_iq_sweep(),
                       "ws_so_sweep": module.run_ws_so_sweep()}
        else:
            results = module.run()
        write_json(results, args.json)
        print(f"wrote {args.json}")
    else:
        module.main()
    return 0


def _cmd_sweep(args) -> int:
    from repro.experiments.sweep import run_cli
    return run_cli(output=args.output, checkpoint=args.checkpoint,
                   resume=not args.no_resume, retries=args.retries,
                   sanitize=True if args.sanitize else None,
                   workers=args.workers, store=args.store)


def _cmd_serve(args) -> int:
    journal_sync = None if args.journal == "none" else args.journal
    if args.role == "node":
        if not args.coordinator:
            print("error: --role node requires --coordinator URL",
                  file=sys.stderr)
            return 2
        from repro.service.cluster.node import run_node
        run_node(args.coordinator, args.store, node_id=args.node_id,
                 workers=args.workers or 1, job_timeout_s=args.timeout)
        return 0
    from repro.service.cluster.frontdoor import serve
    return serve(host=args.host, port=args.port, store_dir=args.store,
                 max_queue=args.queue_size, journal_sync=journal_sync,
                 telemetry=not args.no_telemetry,
                 suspect_after_s=args.suspect_after,
                 dead_after_s=args.dead_after,
                 drain_timeout_s=args.drain_timeout,
                 workers=0 if args.role == "coordinator" else args.workers,
                 job_timeout_s=args.timeout,
                 stats_interval=args.stats_interval)


def _cmd_store(args) -> int:
    from repro.service.store import ResultStore
    store = ResultStore(args.store)
    report = store.scrub()
    results = report["results"]
    print(f"results: {results['checked']} checked, {results['ok']} ok, "
          f"{len(results['quarantined'])} quarantined")
    if "traces" in report:
        traces = report["traces"]
        print(f"traces:  {traces['checked']} checked, {traces['ok']} ok, "
              f"{traces['quarantined']} quarantined")
    if args.repair and report["quarantine_backlog"]:
        from repro.service.pool import SimulationPool
        from repro.service.scrub import repair_quarantined
        with SimulationPool(n_workers=args.workers, store=store) as pool:
            repair = repair_quarantined(store, pool)
        report["repair"] = repair
        print(f"repair:  {repair['repaired']} recomputed, "
              f"{repair['failed']} failed, "
              f"{len(repair['unrepairable'])} unrepairable")
        report["quarantine_backlog"] = len(store.quarantined_paths())
    if args.json:
        from repro.harness.export import write_json
        write_json(report, args.json)
        print(f"wrote {args.json}")
    backlog = report["quarantine_backlog"]
    if backlog:
        print(f"{backlog} entr{'y' if backlog == 1 else 'ies'} remain "
              "quarantined (inspect <store>/quarantine/)")
    return 1 if backlog else 0


def _cmd_submit(args) -> int:
    from repro.service.client import ServiceBusyError, ServiceClient, \
        ServiceError, ServiceUnavailableError

    jobs = []
    if args.batch:
        for pair in args.batch.split(","):
            core, _, app = pair.strip().partition(":")
            if not core or not app:
                print(f"error: bad --batch entry {pair!r} "
                      "(expected core:app)", file=sys.stderr)
                return 2
            jobs.append({"core": core, "app": app})
    else:
        jobs.append({"core": args.core, "app": args.app})
    for job in jobs:
        job.update({"n": args.n, "warmup": args.warmup,
                    "priority": args.priority})

    client = ServiceClient(args.url)
    try:
        accepted = client.submit(jobs, retries_on_busy=args.retries_on_busy,
                                 deadline_s=args.deadline,
                                 retry_connect=args.retries_on_busy > 0)
    except ServiceUnavailableError as exc:
        print(f"error: service unavailable after {exc.attempts} "
              f"attempt(s): {exc.last_error}", file=sys.stderr)
        return 4
    except ServiceBusyError as exc:
        print(f"error: service busy: {exc} "
              f"(retry after {exc.retry_after_s:.0f}s)", file=sys.stderr)
        return 4
    except (ServiceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    for entry in accepted:
        cached = " (cached)" if entry.get("cached") else ""
        print(f"{entry['id']}: {entry['core']}/{entry['app']} "
              f"{entry['status']}{cached} key={entry['key']}")
    if not args.wait:
        return 0

    finished = client.wait([e["id"] for e in accepted],
                           timeout_s=args.wait_timeout)
    rows = []
    failed = 0
    for entry in accepted:
        final = finished[entry["id"]]
        if final["status"] != "done":
            failed += 1
            rows.append([final["core"], final["app"], final["status"],
                         final.get("error", "?")])
            continue
        record = client.result(final["key"])["record"]
        rows.append([final["core"], final["app"],
                     f"{record['ipc']:.3f}",
                     "cached" if entry.get("cached") else "computed"])
    print(format_table(["core", "app", "IPC", "via"], rows))
    if args.json:
        from repro.harness.export import write_json
        write_json({"jobs": [finished[e["id"]] for e in accepted],
                    "stats": client.stats()}, args.json)
        print(f"wrote {args.json}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="CASINO core reproduction (HPCA 2020)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the synthetic applications")

    run_p = sub.add_parser("run", help="simulate one (core, app) pair")
    run_p.add_argument("--core", choices=sorted(_CORES), default="casino")
    run_p.add_argument("--config", metavar="JSON", default=None,
                       help="load the core config from a JSON file instead")
    run_p.add_argument("--app", default="milc")
    run_p.add_argument("-n", type=int, default=24_000)
    run_p.add_argument("--warmup", type=int, default=6_000)
    run_p.add_argument("--sanitize", action="store_true",
                       help="check microarchitectural invariants every cycle")
    run_p.add_argument("--json", metavar="PATH", default=None,
                       help="also write stats + provenance as JSON")

    cmp_p = sub.add_parser("compare", help="all cores on one application")
    cmp_p.add_argument("--app", default="milc")
    cmp_p.add_argument("-n", type=int, default=24_000)
    cmp_p.add_argument("--warmup", type=int, default=6_000)
    cmp_p.add_argument("--sanitize", action="store_true",
                       help="check microarchitectural invariants every cycle")
    cmp_p.add_argument("--json", metavar="PATH", default=None,
                       help="also write per-core stats + provenance as JSON")

    exp_p = sub.add_parser(
        "explain", help="cycle accounting: CPI stack, critical path, "
                        "schedule diff")
    exp_p.add_argument("app", help="application to explain")
    exp_p.add_argument("--core", choices=sorted(_CORES), default="casino")
    exp_p.add_argument("--vs", choices=sorted(_CORES), default=None,
                       help="second core to diff the schedule against")
    exp_p.add_argument("-n", type=int, default=24_000)
    exp_p.add_argument("--warmup", type=int, default=6_000)
    exp_p.add_argument("--top", type=int, default=10,
                       help="instructions to show in path/diff rankings")
    exp_p.add_argument("--sanitize", action="store_true",
                       help="check microarchitectural invariants every cycle")
    exp_p.add_argument("--json", metavar="PATH", default=None,
                       help="write the full report (stacks, paths, diff)")
    exp_p.add_argument("--csv", metavar="PATH", default=None,
                       help="write the CPI-stack components as CSV")

    trace_p = sub.add_parser(
        "trace", help="instrumented run: events, metrics, Perfetto export, "
                      "self-profile")
    trace_p.add_argument("--core", choices=sorted(_CORES), default="casino")
    trace_p.add_argument("--config", metavar="JSON", default=None,
                         help="load the core config from a JSON file instead")
    trace_p.add_argument("--app", default="milc")
    trace_p.add_argument("-n", type=int, default=24_000)
    trace_p.add_argument("--warmup", type=int, default=6_000)
    trace_p.add_argument("--sanitize", action="store_true",
                         help="check microarchitectural invariants every cycle")
    trace_p.add_argument("--perfetto", metavar="PATH", default=None,
                         help="write a Perfetto/Chrome trace-event JSON")
    trace_p.add_argument("--metrics", metavar="PATH", default=None,
                         help="write interval time-series metrics as JSON")
    trace_p.add_argument("--profile", action="store_true",
                         help="print a host wall-clock self-profile")
    trace_p.add_argument("--interval", type=int, default=100,
                         help="metrics sampling interval in cycles")
    trace_p.add_argument("--events", type=int, default=65_536,
                         help="event ring-buffer capacity")
    trace_p.add_argument("--kinds", default=None,
                         help="comma-separated event kinds to record")
    trace_p.add_argument("--seq-range", metavar="LO:HI", default=None,
                         help="only record events for this seq window")
    trace_p.add_argument("--service", metavar="JOURNAL_DIR", default=None,
                         help="instead of simulating, render a service "
                              "journal's job spans (queue waits, lease "
                              "reclaims, worker occupancy) as a Perfetto "
                              "trace (--perfetto sets the output path)")

    char_p = sub.add_parser("characterize",
                            help="measure a synthetic application's trace")
    char_p.add_argument("--app", default="milc")
    char_p.add_argument("-n", type=int, default=24_000)

    fig_p = sub.add_parser("figure", help="regenerate a paper figure")
    fig_p.add_argument("name", choices=sorted(_FIGURES))
    fig_p.add_argument("--json", metavar="PATH", default=None,
                       help="write raw results as JSON instead of a table")

    sweep_p = sub.add_parser(
        "sweep", help="run every figure with checkpointing and retries")
    sweep_p.add_argument("output", nargs="?", default="experiments_out.txt")
    sweep_p.add_argument("--checkpoint", metavar="PATH", default=None,
                         help="checkpoint file (default <output>.ckpt.json)")
    sweep_p.add_argument("--no-resume", action="store_true",
                         help="discard any existing checkpoint and restart")
    sweep_p.add_argument("--retries", type=int, default=1,
                         help="retry-with-reseed attempts per failed run")
    sweep_p.add_argument("--sanitize", action="store_true",
                         help="check microarchitectural invariants every cycle")
    sweep_p.add_argument("--workers", type=int, default=None,
                         help="fan simulations across N worker processes")
    sweep_p.add_argument("--store", metavar="DIR", default=None,
                         help="content-addressed result store directory "
                              "(warm reruns skip completed simulations)")

    serve_p = sub.add_parser(
        "serve", help="run the simulation service (HTTP JSON API)")
    serve_p.add_argument("--role", choices=["single", "coordinator", "node"],
                         default="single",
                         help="'single' = the service with an in-process "
                              "node of --workers workers (default); "
                              "'coordinator' = the same service with no "
                              "local workers, served by --role node "
                              "processes; 'node' = worker agent pulling "
                              "leases from --coordinator")
    serve_p.add_argument("--coordinator", metavar="URL", default=None,
                         help="coordinator base URL (required for "
                              "--role node)")
    serve_p.add_argument("--node-id", default=None,
                         help="stable node identity (default: "
                              "node-<hostname>-<pid>)")
    serve_p.add_argument("--suspect-after", type=float, default=5.0,
                         metavar="S",
                         help="coordinator marks a silent node 'suspect' "
                              "after S seconds without a heartbeat")
    serve_p.add_argument("--dead-after", type=float, default=15.0,
                         metavar="S",
                         help="coordinator declares a silent node dead "
                              "after S seconds (leases reclaimed and "
                              "redelivered)")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8642)
    serve_p.add_argument("--workers", type=int, default=None,
                         help="worker processes of the in-process node "
                              "(default: CPU count) or of a --role node "
                              "(default: 1)")
    serve_p.add_argument("--store", metavar="DIR", default=".repro-store",
                         help="result store directory")
    serve_p.add_argument("--queue-size", type=int, default=64,
                         help="bounded job queue (full -> HTTP 429)")
    serve_p.add_argument("--timeout", type=float, default=None,
                         help="per-job timeout in seconds")
    serve_p.add_argument("--drain-timeout", type=float, default=30.0,
                         help="seconds SIGTERM/SIGINT waits for leased "
                              "jobs before exiting (queued work stays "
                              "journaled)")
    serve_p.add_argument("--journal",
                         choices=["always", "batch", "off", "none"],
                         default="batch",
                         help="write-ahead journal fsync policy; 'none' "
                              "disables journaling (volatile job state)")
    serve_p.add_argument("--stats-interval", type=float, default=None,
                         metavar="SECONDS",
                         help="periodically log a one-line service stats "
                              "summary (queue depth, jobs, store hits)")
    serve_p.add_argument("--no-telemetry", action="store_true",
                         help="disable the metrics registry, per-job "
                              "spans and /metrics (results are "
                              "byte-identical either way)")

    store_p = sub.add_parser(
        "store", help="maintain a content-addressed result store")
    store_sub = store_p.add_subparsers(dest="store_command", required=True)
    scrub_p = store_sub.add_parser(
        "scrub", help="integrity-walk every store entry; quarantine "
                      "mismatches")
    scrub_p.add_argument("--store", metavar="DIR", default=".repro-store",
                         help="result store directory")
    scrub_p.add_argument("--repair", action="store_true",
                         help="re-run reconstructable quarantined entries "
                              "through a local pool")
    scrub_p.add_argument("--workers", type=int, default=None,
                         help="pool size for --repair (default: CPU count)")
    scrub_p.add_argument("--json", metavar="PATH", default=None,
                         help="write the scrub report as JSON")

    submit_p = sub.add_parser(
        "submit", help="submit simulation jobs to a running service")
    submit_p.add_argument("--url", default="http://127.0.0.1:8642")
    submit_p.add_argument("--core", choices=sorted(_CORES), default="casino")
    submit_p.add_argument("--app", default="milc")
    submit_p.add_argument("--batch", metavar="CORE:APP,CORE:APP,...",
                          default=None,
                          help="submit several (core, app) jobs at once")
    submit_p.add_argument("-n", type=int, default=24_000)
    submit_p.add_argument("--warmup", type=int, default=6_000)
    submit_p.add_argument("--priority", type=int, default=100,
                          help="lower numbers are served first")
    submit_p.add_argument("--retries-on-busy", type=int, default=0,
                          help="resubmission attempts on 429/503 or "
                               "connection failure (capped exponential "
                               "backoff + jitter)")
    submit_p.add_argument("--deadline", type=float, default=None,
                          help="overall submission deadline in seconds "
                               "across all retries")
    submit_p.add_argument("--wait", action="store_true",
                          help="poll until every job finishes, then print "
                               "a result table")
    submit_p.add_argument("--wait-timeout", type=float, default=600.0)
    submit_p.add_argument("--json", metavar="PATH", default=None,
                          help="with --wait: write final job states + stats")

    args = parser.parse_args(argv)
    return {"list": _cmd_list, "run": _cmd_run,
            "compare": _cmd_compare, "explain": _cmd_explain,
            "figure": _cmd_figure,
            "characterize": _cmd_characterize, "trace": _cmd_trace,
            "sweep": _cmd_sweep, "serve": _cmd_serve,
            "store": _cmd_store, "submit": _cmd_submit}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
