#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the CASINO reproduction.

    python3 e2ebench/e2e.py [--workload W] [--seed S] [--seconds T]
                            [--trace 0|1] [--out PATH]

Each workload runs in fresh child processes of this one: ``setup_s`` is
the median over six children of the time from spawn until the workload
is ready for its first timed operation (in reference seconds, see
``e2e_workloads.calibration_kernel``), and one more child, started
between the third and the fourth, measures the workload for
``--seconds``.  The untraced run (``--trace 0``) reports the
end-to-end metrics; ``--trace 1`` installs class-level
timers around each simulator layer (see ``e2e_layers.py``) and reports
per-layer metrics, each tagged with the end-to-end metric and workload
it should move.  Every operation's simulated counters are checked
against ``goldens.json``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end or per-layer
metrics named in ``BENCHMARK.json``).  The benchmark runs the program
from ``src/`` of the checkout it lives in and writes only below
``.e2e_work/`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from e2e_workloads import CAL_REF_S, WORKLOADS, cpu_calibrations, kips

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 6
CHILD_TIMEOUT_S = {"setup": 60, "run": 150}

#: Per-layer metric prefix -> the end-to-end metric and workload it
#: should move (longest matching prefix wins).
TARGETS = {
    "workloads.": "sim_kips @ sim-membound, sim-compute",
    "engine.self": "sim_kips @ all",
    "engine.ff_skip_frac": "sim_kips @ sim-membound",
    "engine.us_per_stepped_cycle": "sim_kips @ sim-compute",
    "cores.": "sim_kips @ sim-compute",
    "frontend.": "sim_kips @ sim-compute",
    "memory.": "sim_kips @ sim-membound",
    "lsu.": "sim_kips @ sim-membound",
    "rename.": "sim_kips @ sim-compute",
    "power.": "sim_kips @ all",
    "trace_store.": "sim_kips @ fig6-sweep",
    "trace.overhead": "sim_kips @ all (traced vs untraced)",
    "pool.": "sim_kips @ fig6-sweep",
    "pool.dispatched": "job_p50_s @ fig6-sweep",
    "pool.cached": "job_p50_s @ fig6-sweep",
    "harness.": "job_p50_s @ fig6-sweep",
    "store.": "job_p50_s @ fig6-sweep",
    "service.": "job_p50_s @ service-jobs",
    "service.queue_s": "job_p95_s @ service-jobs",
    "service.dispatch_s": "job_p95_s @ service-jobs",
    "service.store_s": "job_p95_s @ service-jobs",
    "service.simulate_s": "sim_kips, job_p95_s @ service-jobs",
    "service.redeliveries": "failed_frac @ service-jobs",
    "service.rejected": "failed_frac @ service-jobs",
}

#: Units of the per-layer metrics the workloads compute by pattern.
LAYER_UNITS = (("_us_per_kinstr", "us/kinstr"), ("_pki", "1/kinstr"),
               (".kips", "kinstr/s"), (".share", "fraction"),
               ("_frac", "fraction"), ("us_per_stepped_cycle", "us"),
               ("trace.overhead", "fraction"))


def target_of(name: str) -> str:
    best = max((p for p in TARGETS if name.startswith(p)), key=len,
               default=None)
    return TARGETS[best] if best else "detail"


def unit_of(name: str) -> str:
    for pattern, unit in LAYER_UNITS:
        if pattern in name:
            return unit
    raise KeyError(f"no unit for per-layer metric {name!r}")


def p95(values) -> float:
    """95th percentile, by the quantile definition ``aa.py`` uses."""
    return statistics.quantiles(values, n=20)[-1]


# -- child side -----------------------------------------------------------


def child_main(args) -> int:
    """Set up one workload, report when ready, and (``run``) measure it."""
    import e2e_goldens
    import e2e_workloads

    work = e2e_workloads.make(args.workload, args.seed, args.work_dir,
                              e2e_goldens.load())
    out = {}
    try:
        work.setup()
        out["setup_s"] = time.monotonic() - args.spawned_at
        if args.child == "run":
            work.run(args.seconds, bool(args.trace))
    finally:
        work.close()
    if args.child == "run":
        out.update(work.outcome())
    kib = max(resource.getrusage(who).ru_maxrss for who in
              (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    out["peak_rss_mb"] = kib / 1024.0
    args.result.write_text(json.dumps(out))
    return 0


# -- parent side ----------------------------------------------------------


def child_env(work_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    tmp = work_dir / "tmp"
    tmp.mkdir(exist_ok=True)
    env["TMPDIR"] = str(tmp)
    # The program asks git for its revision; keep git inside the checkout.
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


def spawn(mode: str, workload: str, seed: int, seconds: float, trace: bool,
          work_dir: Path, index: int) -> dict:
    result = work_dir / f"{mode}-{index}.json"
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--child", mode,
         "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(int(trace)),
         "--work-dir", str(work_dir), "--spawned-at", repr(spawned_at),
         "--result", str(result)],
        stdout=sys.stderr, env=child_env(work_dir), start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S[mode])
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:  # whatever the child left behind in its session
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code != 0:
        raise RuntimeError(f"{workload}: {mode} child "
                           f"{'timed out' if code is None else f'exited {code}'}")
    return json.loads(result.read_text())


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Setup probes plus one measured child; the child's result with
    ``setup_s`` replaced by the list of every probe's, in reference
    seconds.  Set-up is mostly CPU-bound imports, and rescaling each
    probe by calibrations on both sides of it halved the spread of the
    median of five (7% vs 14% sd)."""
    work_dir = ROOT / ".e2e_work" / f"{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    probes = 0 if trace else SETUP_REPEATS // 2

    def setups(first: int) -> list:
        out = []
        for i in range(first, first + probes):
            before = cpu_calibrations()
            setup_s = spawn("setup", workload, seed, seconds, trace,
                            work_dir, i)["setup_s"]
            out.append(setup_s * CAL_REF_S / statistics.fmean(
                before + cpu_calibrations()))
        return out

    try:
        # Probes on both sides of the measured child sample the host's
        # speed over the whole run, not one moment of it.
        before = setups(0)
        result = spawn("run", workload, seed, seconds, trace, work_dir, 0)
        result["setup_s"] = before + setups(probes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:  # another run still works there
            pass
    return result


def end_to_end(result: dict) -> dict:
    """``name -> (value, unit, samples)``: the end-to-end metrics, then
    details the report prints beside them (the failed fraction, the raw
    host times behind the rescaled ones, the workload's own numbers)."""
    lat, raw = result["latencies_s"], result["raw_latencies_s"]
    out = {
        "setup_s": (statistics.median(result["setup_s"]), "s",
                    len(result["setup_s"])),
        "sim_kips": (kips(result["passes"]), "kinstr/s",
                     len(result["passes"])),
        "job_p50_s": (statistics.median(lat), "s", len(lat)),
        "job_p95_s": (p95(lat), "s", len(lat)),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", 1),
        "failed_frac": (result["failed"] / result["attempted"], "fraction",
                        result["attempted"]),
        "raw.sim_kips": (kips(result["passes"], column=2), "kinstr/s",
                         len(result["passes"])),
        "raw.job_p50_s": (statistics.median(raw), "s", len(raw)),
        "raw.job_p95_s": (p95(raw), "s", len(raw)),
    }
    if result["cal_s"]:
        out["calibration_ms"] = (statistics.median(result["cal_s"]) * 1e3,
                                 "ms", len(result["cal_s"]))
    out.update((name, tuple(entry))
               for name, entry in result["report"].items())
    return out


def per_layer(result: dict) -> dict:
    out = {name: (value, unit_of(name), 1)
           for name, value in result["layers"].items()}
    out.update({name: tuple(entry) for name, entry in
                result["report"].items() if name not in out})
    return out


def print_report(workload: str, result: dict, metrics: dict,
                 trace: bool) -> None:
    print(f"== {workload}: {result['attempted']} ops, {result['failed']} "
          f"failed, {result['golden_checked']} golden-checked")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    for name, (value, unit, samples) in sorted(metrics.items()):
        tag = f" -> {target_of(name)}" if trace else ""
        print(f"   {name:<34} {value:>14.6g} {unit:<10} n={samples:<5}{tag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="end-to-end + per-layer benchmark (see README.md)")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 1 is held out for claims")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: per-layer run instead of end-to-end")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full report as JSON")
    parser.add_argument("--child", choices=("setup", "run"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--result", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return child_main(args)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    full, lines = {}, {}
    for workload in workloads:
        result = run_workload(workload, args.seed, seconds, bool(args.trace))
        metrics = per_layer(result) if args.trace else end_to_end(result)
        print_report(workload, result, metrics, bool(args.trace))
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise RuntimeError(f"{workload}: no value for {missing}")
        lines[workload] = {
            "correct": result["failed"] == 0 and result["attempted"] > 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                    "unit": metrics[m["name"]][1]}
                        for m in wanted}}
        full[workload] = {"result": result, "metrics": metrics}
    if args.out:
        args.out.write_text(json.dumps(full, indent=1, default=list) + "\n")
    if len(lines) == 1:
        final = lines[workloads[0]]
    else:
        final = {"correct": all(v["correct"] for v in lines.values()),
                 "attempted": sum(v["attempted"] for v in lines.values()),
                 "failed": sum(v["failed"] for v in lines.values()),
                 "metrics": {w: v["metrics"] for w, v in lines.items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
