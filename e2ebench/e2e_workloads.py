"""The four workloads of the end-to-end benchmark.

Each workload is a class with ``setup()`` (what ``setup_s`` times),
``run(seconds, trace)`` and ``close()``.  Sizes are constructor
arguments so the smoke test can run every workload in seconds; the
defaults are the benchmark's.

All load is closed-loop and comes from the calling process: serial
simulation, one pool of ``nproc`` = 2 workers, or 2 client threads.

``--seed S`` reaches the program only as generated inputs: every trace
seed is ``profile.seed + 1000 * k`` (the rule of ``Runner.run_seeds``)
for a trace seed index ``k``.  ``k`` is S, except that the sim-* passes
cycle through ``k = S + VARIANT_STRIDE * v`` for ``v < SIM_VARIANTS``.
For ``service-jobs`` S also draws the repeated submissions and the
order of all of them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from e2e_goldens import DigestBook
from e2e_layers import LayerClock, merge, read_dumps, stage_shares, summarize

#: Core name (as ``repro submit`` spells it) -> config factory.
CORE_FACTORIES = {
    "ino": "make_ino_config", "lsc": "make_lsc_config",
    "freeway": "make_freeway_config", "casino": "make_casino_config",
    "ooo": "make_ooo_config", "specino": "make_specino_config",
}
ALL_CORES = tuple(CORE_FACTORIES)
#: Cores without a vector-tier kernel: profiling them with the repo's
#: SelfProfiler (which forces the pure tier) describes the loop they run.
PURE_TIER_CORES = ("lsc", "freeway", "ooo", "specino")
FIG6_CORES = ("ino", "lsc", "freeway", "casino", "ooo")

MEMBOUND_APPS = ("mcf", "omnetpp", "cactusADM", "milc")
COMPUTE_APPS = ("hmmer", "gamess", "gobmk", "sjeng")

#: Geomean speedups over InO the paper reports for Fig. 6, in percent.
PAPER_FIG6 = {"lsc": 28.0, "freeway": 34.0, "casino": 51.0, "ooo": 68.0}

TERMINAL = ("done", "failed", "dead_letter")

#: Pool workers and service client threads: ``nproc`` of the 2-vCPU
#: reference host.
WORKERS = 2
#: How often a service client polls a job it submitted.
POLL_S = 0.01

#: Seconds :func:`calibration_kernel` takes on the reference host (a
#: 2-vCPU VM whose usual speed this is).
CAL_REF_S = 0.0074

#: A cold sweep is timed in this many slices of the apps, with every
#: CPU calibrated between them (see :meth:`Fig6Workload._cold_pass`).
COLD_SLICES = 5

#: The trace seed changes how much a sim-* pass simulates: over seeds
#: 0-9 the stepped cycles of a pass spread by ~4% (quartiles), as much
#: at n=24000 as at n=12000, so longer traces do not average it out.  A
#: sim-* run therefore cycles its passes through SIM_VARIANTS trace
#: seeds (about one pass each), and its numbers span all of them.
SIM_VARIANTS = 8
#: Runs with seeds below the stride share no trace, so seed 1 stays
#: held out.
VARIANT_STRIDE = 100


def calibration_kernel() -> int:
    """Fixed pure-Python work that measures how fast a CPU runs now.

    On the shared 2-vCPU VM this benchmark was built on, each vCPU's
    speed swings by up to 50%, independently, every few seconds.  The
    simulator and this loop slow down together, so a CPU-bound interval
    is rescaled by ``CAL_REF_S`` over the kernel's time on the CPUs it
    ran on, measured on both sides of it (the normalisation
    ``scripts/bench.py`` uses): after every serial simulation and warm
    sweep, with this process pinned to one CPU so the kernel times the
    CPU the work ran on, and between the slices of a cold sweep on every
    CPU in turn (its pool workers use them all).

    ``service-jobs`` stays in host time.  Fixed HTTP delays are much of
    a pass, so rescaling whole passes overshot: with this kernel 1.66x
    slower than usual, a pass took 1.17x longer.  Rescaling only the
    worker's simulate time (from ``/metrics``) by calibrations between
    slices of a pass still disagreed by 10% between two runs, because
    the server's own work after each slice skews those calibrations;
    pinning the server to one CPU added 4 ms to every request.

    Half the kernel builds and sums small dicts, half is integer
    arithmetic.  In slow spells a warm sweep (JSON records, many small
    objects) ran 1.57x slower; a pure integer loop read 1.28x, this mix
    1.44x, and it tracks serial simulations as closely as the loop."""
    acc = 0
    for _ in range(75):
        table = {f"c{i}": i for i in range(300)}
        for _, value in table.items():
            acc += value
    for i in range(50_000):
        acc = (acc + i * 31) & 0xFFFF
    return acc


def cpu_calibrations() -> List[float]:
    """:func:`calibration_kernel`'s time pinned to each CPU this
    process may use, in turn."""
    cpus = os.sched_getaffinity(0)
    samples = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            start = perf_counter()
            calibration_kernel()
            samples.append(perf_counter() - start)
    finally:
        os.sched_setaffinity(0, cpus)
    return samples


def kips(passes, column: int = 1) -> float:
    """Simulated kinstr per second over all ``passes``: column 1 gives
    ref seconds, column 2 host seconds.  A ratio of totals, not a median
    of per-pass rates: with 3-4 cold sweeps per fig6-sweep run it spread
    7% over ten runs where the median of passes spread 10%."""
    return (sum(p[0] for p in passes)
            / sum(p[column] for p in passes))


def core_config(core: str):
    from repro.common import params
    return getattr(params, CORE_FACTORIES[core])()


def seeded_profile(app: str, seed: int):
    from repro.workloads.suite import get_profile
    profile = get_profile(app)
    return dataclasses.replace(profile, seed=profile.seed + 1000 * seed)


def schedule(seconds: float, trace: bool):
    """Yield ``(index, traced)`` per pass for about ``seconds``.

    A pass starts only while the mean pass so far still fits.  Untraced
    runs do at least one pass; traced runs alternate untraced and traced
    passes and always finish a pair, so ``trace.overhead`` compares equal
    counts of each."""
    start = time.monotonic()
    index = 0
    while True:
        yield index, trace and index % 2 == 1
        index += 1
        if trace and index % 2:
            continue
        elapsed = time.monotonic() - start
        if elapsed + elapsed / index * (2 if trace else 1) > seconds:
            return


class Tally:
    """Ops attempted and failed; failures keep a few descriptions."""

    def __init__(self, book: DigestBook) -> None:
        self.book = book
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def op(self, label: str, spec: tuple = (), digest: Optional[str] = None,
           error: Optional[str] = None) -> None:
        """One op of ``spec`` = (core, app, n, warmup, trace seed index);
        fails on ``error`` or a wrong counter digest."""
        self.attempted += 1
        if error is None:
            error = self.book.check(*spec, digest)
        if error is not None:
            self.fail(label, error)

    def fail(self, label: str, error: str, count: int = 1) -> None:
        """Fail ``count`` ops already counted as attempted."""
        self.failed += count
        if len(self.failures) < 8:
            self.failures.append(f"{label}: {error}")


class Workload:
    """Shared plumbing: seed, scratch directory, result bookkeeping."""

    def __init__(self, seed: int, work_dir: Path, goldens: dict,
                 n: int, warmup: int, profile_apps: Sequence[str]) -> None:
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.n, self.warmup = n, warmup
        #: Apps the stage profile (``cores.stage.*.share``) simulates.
        self.profile_apps = tuple(profile_apps)
        self.tally = Tally(DigestBook(goldens))
        self.clock = LayerClock()
        # Simulating passes as (kinstr, ref s, host s), and user-facing
        # requests in ref seconds with their host-second twins.
        self.passes: List[tuple] = []
        self.traced_passes: List[tuple] = []
        self.latencies_s: List[float] = []
        self.raw_latencies_s: List[float] = []
        self.cal_s: List[float] = []
        #: Workload-specific end-to-end and layer numbers for the report:
        #: name -> (value, unit, samples).
        self.report: Dict[str, tuple] = {}
        self.layers: Dict[str, float] = {}

    def specs(self) -> list:
        """``(core, app, n, warmup, trace seed index)`` of every
        simulation this runs."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        self.clock.uninstall()

    def run(self, seconds: float, trace: bool) -> None:
        dump_dir = self.work_dir / "layers"
        if trace:
            self.clock.share_with_children(dump_dir)
        self._run(seconds, trace)
        if trace:
            totals = merge([self.clock.totals] + read_dumps(dump_dir))
            self.layers.update(summarize(totals))
            self.layers.update(self._stage_profile())
            self.layers["trace.overhead"] = (
                kips(self.passes) / kips(self.traced_passes) - 1.0)

    def _run(self, seconds: float, trace: bool) -> None:
        raise NotImplementedError

    def outcome(self) -> dict:
        """What a finished run measured, as plain JSON-able data."""
        return {"attempted": self.tally.attempted,
                "failed": self.tally.failed,
                "failures": self.tally.failures,
                "golden_checked": self.tally.book.golden_checked,
                "passes": self.passes, "traced_passes": self.traced_passes,
                "latencies_s": self.latencies_s,
                "raw_latencies_s": self.raw_latencies_s,
                "cal_s": self.cal_s, "report": self.report,
                "layers": self.layers}

    def _stage_profile(self) -> Dict[str, float]:
        from repro.workloads.generator import SyntheticWorkload
        traces = [SyntheticWorkload(seeded_profile(app, self.seed))
                  .generate(self.n) for app in self.profile_apps]
        return stage_shares((core_config(core), trace, self.warmup)
                            for trace in traces
                            for core in PURE_TIER_CORES)

    def _calibrate(self) -> float:
        start = perf_counter()
        calibration_kernel()
        self.cal_s.append(perf_counter() - start)
        return self.cal_s[-1]

    def _calibrate_cpus(self) -> List[float]:
        samples = cpu_calibrations()
        self.cal_s.extend(samples)
        return samples

    @contextlib.contextmanager
    def _pinned(self):
        """Keep this process on one CPU, so each calibration times the
        CPU the interval beside it ran on."""
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            yield
        finally:
            os.sched_setaffinity(0, cpus)

    def _rescale(self, before: float):
        """Calibrate again; ``(this sample, ref seconds per host second)``
        for the interval since the ``before`` sample."""
        after = self._calibrate()
        return after, 2 * CAL_REF_S / (before + after)

    def _book_kips(self, traced: bool, kinstr: float, host_s: float,
                   ref_s: float) -> None:
        (self.traced_passes if traced else self.passes).append(
            (kinstr, ref_s, host_s))

    def _book_latency(self, wall: float, scale: float = 1.0) -> None:
        self.latencies_s.append(wall * scale)
        self.raw_latencies_s.append(wall)

    def _note(self, name: str, values: Sequence[float], unit: str) -> None:
        if values:
            self.report[name] = (statistics.fmean(values), unit, len(values))


class SimWorkload(Workload):
    """Serial ``Runner`` simulation: every core on every app, with a
    fresh Runner (so freshly generated traces) each pass.  Passes cycle
    through the trace seed variants; a traced pass uses the variant of
    the untraced pass it is paired with."""

    def __init__(self, seed, work_dir, goldens, apps: Sequence[str],
                 n: int = 8_000, warmup: int = 2_000) -> None:
        super().__init__(seed, work_dir, goldens, n, warmup, apps[:2])
        self.apps = tuple(apps)
        self.variants = [seed + VARIANT_STRIDE * v
                         for v in range(SIM_VARIANTS)]

    def specs(self) -> list:
        return [(core, app, self.n, self.warmup, variant)
                for variant in self.variants for core in ALL_CORES
                for app in self.apps]

    def setup(self) -> None:
        from repro.harness.runner import Runner
        from repro.obs.provenance import counter_digest
        self._runner_cls, self._digest = Runner, counter_digest
        self.cfgs = [core_config(core) for core in ALL_CORES]
        self.profiles = [[seeded_profile(app, variant) for app in self.apps]
                         for variant in self.variants]

    def _run(self, seconds: float, trace: bool) -> None:
        for index, traced in schedule(seconds, trace):
            if traced:
                self.clock.install()
            v = (index // 2 if trace else index) % len(self.variants)
            runner = self._runner_cls(n_instrs=self.n, warmup=self.warmup)
            busy = ref_busy = 0.0
            with self._pinned():
                cal = self._calibrate()
                for profile in self.profiles[v]:
                    for cfg in self.cfgs:
                        label = f"{cfg.name}/{profile.name}"
                        start = perf_counter()
                        try:
                            stats = runner.run(cfg, profile).stats
                            error = None
                        except Exception as exc:  # counted; run goes on
                            error = repr(exc)
                        elapsed = perf_counter() - start
                        cal, scale = self._rescale(cal)
                        busy += elapsed
                        ref_busy += elapsed * scale
                        if not traced:
                            self._book_latency(elapsed, scale)
                        self.tally.op(label, (cfg.name, profile.name, self.n,
                                              self.warmup, self.variants[v]),
                                      error=error, digest=None if error
                                      else self._digest(stats))
            self.clock.uninstall()
            self._book_kips(traced, len(self.cfgs) * len(self.profiles[v])
                            * self.n / 1e3, busy, ref_busy)


class PoolProbe:
    """Parent-side view of one SimulationPool pass: submit times, the
    pool's span events, time in ``run_batch`` and in result-store reads,
    and every record a batch returned."""

    def __init__(self, pool) -> None:
        self.reset()
        self._pool = pool
        submit, run_batch, get = pool.submit, pool.run_batch, pool.store.get

        def timed_submit(spec):
            job = submit(spec)
            self.submitted[job] = perf_counter()
            return job

        def timed_batch(specs):
            start = perf_counter()
            records = run_batch(specs)
            self.batch_s += perf_counter() - start
            self.records.extend(zip(specs, records))
            return records

        def timed_get(key):
            start = perf_counter()
            try:
                return get(key)
            finally:
                self.store_get_s += perf_counter() - start

        pool.submit, pool.run_batch = timed_submit, timed_batch
        pool.store.get = timed_get
        pool.on_event = self._on_event

    def detach(self) -> None:
        """Drop the instance wrappers: they hold the pool (and with it
        every record it resolved) in reference cycles."""
        for obj, name in ((self._pool, "submit"), (self._pool, "run_batch"),
                          (self._pool.store, "get")):
            vars(obj).pop(name, None)
        self._pool.on_event = None

    def reset(self) -> None:
        self.submitted: Dict[int, float] = {}
        self.events: Dict[int, Dict[str, float]] = {}
        self.records: list = []
        self.batch_s = 0.0
        self.store_get_s = 0.0

    def _on_event(self, job: int, event: str, **attrs) -> None:
        self.events.setdefault(job, {})[event] = perf_counter()

    def segments(self, first: str, last: str) -> List[float]:
        """``last - first`` per dispatched job (``submitted`` = submit)."""
        out = []
        for job, events in self.events.items():
            stamps = dict(events, submitted=self.submitted.get(job))
            if stamps.get(first) is not None and last in stamps:
                out.append(stamps[last] - stamps[first])
        return out


class Fig6Workload(Workload):
    """``PooledRunner`` + ``SimulationPool(n_workers=2)`` running
    ``fig6_ipc.run`` over all 25 apps.  Each cycle is one cold pass on a
    fresh pool and store, in slices, then ``warm_passes`` passes over
    every app on that store."""

    def __init__(self, seed, work_dir, goldens, n: int = 4_000,
                 warmup: int = 1_000, warm_passes: int = 20,
                 apps: Optional[Sequence[str]] = None) -> None:
        super().__init__(seed, work_dir, goldens, n, warmup, ("mcf", "hmmer"))
        self.apps = apps
        self.warm_passes = warm_passes
        self.pool = None
        self._pools = 0

    def _apps(self) -> list:
        from repro.workloads.suite import suite_profiles
        return list(self.apps or [p.name for p in suite_profiles("all")])

    def specs(self) -> list:
        return [(core, app, self.n, self.warmup, self.seed)
                for core in FIG6_CORES for app in self._apps()]

    def setup(self) -> None:
        from repro.experiments import fig6_ipc
        from repro.service.runner import PooledRunner
        self._fig6, self._runner_cls = fig6_ipc.run, PooledRunner
        self.profiles = [seeded_profile(app, self.seed)
                         for app in self._apps()]
        self._new_pool()

    def close(self) -> None:
        self._close_pool()
        super().close()

    def _new_pool(self) -> None:
        from repro.service.pool import SimulationPool
        from repro.service.store import ResultStore
        self._close_pool()
        self._pools += 1
        self.store_dir = self.work_dir / f"store-{self._pools}"
        self.pool = SimulationPool(n_workers=WORKERS,
                                   store=ResultStore(self.store_dir))
        self.probe = PoolProbe(self.pool)
        self.pool.start()

    def _close_pool(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.probe.detach()
            self.pool = None
            shutil.rmtree(self.store_dir, ignore_errors=True)

    def _sweep(self, profiles):
        """``fig6_ipc.run`` over ``profiles``."""
        runner = self._runner_cls(self.pool, n_instrs=self.n,
                                  warmup=self.warmup)
        return runner.run_figure(self._fig6, profiles)

    def _check(self, label: str, before: dict) -> dict:
        """Check every record resolved since the probe's reset; return the
        pool's dispatched and cached counts since ``before``."""
        for spec, record in self.probe.records:
            core, app = spec.core["name"], spec.profile["name"]
            error = (record.get("error") or "failed"
                     if record.get("failed") else None)
            self.tally.op(f"{label} {core}/{app}",
                          (core, app, self.n, self.warmup, self.seed),
                          error=error,
                          digest=record.get("manifest", {})
                          .get("counter_digest"))
        return {k: self.pool.stats[k] - before[k]
                for k in ("dispatched", "cached")}

    def _cold_pass(self):
        """The cold sweep, run as sweeps over ``COLD_SLICES`` slices of
        the apps with every CPU calibrated before the first and after
        each: ``(host s, ref s, pool counts)``.

        Its workers keep both CPUs busy, and each CPU's speed changes
        every few seconds, so calibrating only around a 4 s sweep left
        its ref time noisier than its host time (8% vs 6% sd over ten
        sweeps); calibrating between slices brought that to 3%."""
        self.probe.reset()
        before = dict(self.pool.stats)
        size = -(-len(self.profiles) // COLD_SLICES)
        wall = ref = 0.0
        cal = self._calibrate_cpus()
        for first in range(0, len(self.profiles), size):
            start = perf_counter()
            self._sweep(self.profiles[first:first + size])
            elapsed = perf_counter() - start
            after = self._calibrate_cpus()
            wall += elapsed
            ref += elapsed * CAL_REF_S / statistics.fmean(cal + after)
            cal = after
        return wall, ref, self._check("cold", before)

    def _warm_pass(self):
        """One sweep over every app: ``(host s, result, pool counts)``."""
        self.probe.reset()
        before = dict(self.pool.stats)
        start = perf_counter()
        result = self._sweep(self.profiles)
        wall = perf_counter() - start
        return wall, result, self._check("warm", before)

    def _run(self, seconds: float, trace: bool) -> None:
        cold, warm, collect, store_get, err_pts = [], [], [], [], []
        queue, simulate, store, busy, dispatched, cached = ([] for _ in
                                                            range(6))
        trace_store = {"hits": [], "misses": [], "writes": []}
        for index, traced in schedule(seconds, trace):
            if index:
                # Workers fork with whatever wrappers the parent has.
                if traced:
                    self.clock.install()
                self._new_pool()
            wall, ref, delta = self._cold_pass()
            self._book_kips(traced, len(self.probe.records) * self.n / 1e3,
                            wall, ref)
            if not traced:
                cold.append(wall)
                dispatched.append(delta["dispatched"])
                queue.extend(self.probe.segments("submitted", "started"))
                sims = self.probe.segments("started", "simulated")
                simulate.extend(sims)
                store.extend(self.probe.segments("simulated", "stored"))
                busy.append(sum(sims) / (WORKERS * wall))
                counts = self.pool.stats_snapshot()["trace_store"]
                for name, values in trace_store.items():
                    values.append(counts[name])
            with self._pinned():
                cal = self._calibrate()
                for warm_index in range(self.warm_passes):
                    wall, result, delta = self._warm_pass()
                    cal, scale = self._rescale(cal)
                    if delta["dispatched"]:
                        self.tally.fail("warm pass", f"dispatched "
                                        f"{delta['dispatched']} simulations",
                                        count=delta["dispatched"])
                    if not traced and warm_index == 0:
                        # The cold pass ran slices; this is the whole figure.
                        err_pts.append(statistics.fmean(
                            abs((result[model]["geomean"] - 1.0) * 100.0
                                - paper)
                            for model, paper in PAPER_FIG6.items()))
                    if not traced:
                        warm.append(wall)
                        self._book_latency(wall, scale)
                        collect.append(wall - self.probe.batch_s)
                        store_get.append(self.probe.store_get_s)
                        cached.append(delta["cached"])
            self.clock.uninstall()
        self._note("sweep_cold_s", cold, "s")
        self._note("sweep_warm_s", warm, "s")
        self._note("fig6_err_pts", err_pts, "pts")
        self._note("pool.queue_s", queue, "s")
        self._note("pool.simulate_s", simulate, "s")
        self._note("pool.store_s", store, "s")
        self._note("pool.busy_frac", busy, "fraction")
        self._note("pool.dispatched", dispatched, "count")
        self._note("pool.cached", cached, "count")
        self._note("harness.collect_s", collect, "s")
        self._note("store.get_s", store_get, "s")
        for name, values in trace_store.items():
            self._note(f"trace_store.{name}", values, "count")


class ServiceJobs(Workload):
    """``python -m repro serve --workers 1`` on a fresh store per pass,
    driven over HTTP by ``WORKERS`` closed-loop client threads polling
    every ``POLL_S``.

    Each pass sends the same ``submissions`` jobs: every (core, app, n)
    of ``apps`` x ``ns`` once, and repeats drawn with the seed for the
    rest, in an order the seed shuffles.  A repeat sent after its first
    result is stored is a store hit.  Sending every spec keeps the
    simulated work the same for every seed: drawing all 240 let the seed
    pick which ~88 specs ran, and moved ``sim_kips`` by up to 14%
    between seeds.  The server is the program's own CLI, so it stays
    valid however ``serve`` is built."""

    def __init__(self, seed, work_dir, goldens,
                 apps: Sequence[str] = (), ns: Sequence[int] = (2000, 3000),
                 submissions: int = 240) -> None:
        super().__init__(seed, work_dir, goldens, max(ns), max(ns) // 4,
                         apps[:2])
        self.apps = tuple(apps)
        self.ns = tuple(ns)
        self.submissions = submissions
        self.server = None
        self._servers = 0

    def specs(self) -> list:
        return [(core, app, n, n // 4, self.seed) for core in ALL_CORES
                for app in self.apps for n in self.ns]

    def setup(self) -> None:
        from repro.service.client import ServiceClient, ServiceBusyError
        from repro.service.store import ResultStore
        self._client_cls, self._busy = ServiceClient, ServiceBusyError
        self._store_cls = ResultStore
        specs = [(core, app, n) for core, app, n, _, _ in self.specs()]
        rng = random.Random(self.seed)
        self.draws = specs + [rng.choice(specs) for _ in
                              range(self.submissions - len(specs))]
        rng.shuffle(self.draws)
        self.names = {core: core_config(core).name for core in ALL_CORES}
        self.bodies = {spec: {"core": spec[0], "n": spec[2],
                              "warmup": spec[2] // 4,
                              "profile": dataclasses.asdict(
                                  seeded_profile(spec[1], self.seed))}
                       for spec in set(self.draws)}
        self._start_server(traced=False)

    def close(self) -> None:
        self._stop_server()
        super().close()

    # -- the server ----------------------------------------------------------

    def _start_server(self, traced: bool) -> None:
        self._servers += 1
        self.store_dir = self.work_dir / f"store-{self._servers}"
        serve = ["serve", "--workers", "1", "--store", str(self.store_dir),
                 "--port", "0"]
        if traced:
            launcher = Path(__file__).with_name("e2e_serve.py")
            cmd = [sys.executable, str(launcher),
                   str(self.work_dir / "layers")] + serve
        else:
            cmd = [sys.executable, "-m", "repro"] + serve
        log = open(self.work_dir / f"server-{self._servers}.log", "w")
        self.server = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=log, text=True,
            env=dict(os.environ, PYTHONUNBUFFERED="1"))
        log.close()
        banner = self.server.stdout.readline()  # "... on http://h:p (...)"
        if "http://" not in banner:
            raise RuntimeError(f"server did not start: {banner!r}")
        self.url = "http://" + banner.split("http://", 1)[1].split()[0]
        client = self._client_cls(self.url, timeout=5)
        deadline = time.monotonic() + 30
        while True:
            try:
                client.health()
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)
        client.close()

    def _stop_server(self) -> None:
        """SIGTERM (the server drains and exits 0); the store stays."""
        if self.server is None:
            return
        self.server.send_signal(signal.SIGTERM)
        try:
            self.server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()
        self.server = None

    # -- one pass ------------------------------------------------------------

    def _client(self, share: list, out: list) -> None:
        client = self._client_cls(self.url, timeout=60)
        try:
            for spec in share:
                requests = rejected = 0
                entry, error = None, None
                start = perf_counter()
                try:
                    while entry is None:
                        requests += 1
                        try:
                            (entry, ) = client.submit(self.bodies[spec])
                        except self._busy as exc:
                            rejected += 1
                            if rejected > 3:
                                raise
                            time.sleep(exc.retry_after_s)
                    while entry["status"] not in TERMINAL:
                        time.sleep(POLL_S)
                        requests += 1
                        entry = client.job(entry["id"])
                except Exception as exc:  # counted as a failed op
                    error = repr(exc)
                out.append({"spec": spec, "latency": perf_counter() - start,
                            "entry": entry, "error": error,
                            "requests": requests, "rejected": rejected})
        finally:
            client.close()

    def _pass(self):
        out: list = []
        threads = [threading.Thread(target=self._client,
                                    args=(self.draws[i::WORKERS], out))
                   for i in range(WORKERS)]
        start = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return perf_counter() - start, out

    def _check(self, jobs: list) -> None:
        """Golden-check the stored result of every submission (read from
        the stopped server's store: each GET costs the HTTP floor)."""
        store = self._store_cls(self.store_dir)
        digests: Dict[str, Optional[str]] = {}
        for job in jobs:
            core, app, n = job["spec"]
            label = f"job {core}/{app}/{n}"
            entry = job["entry"]
            if job["error"] is not None:
                self.tally.op(label, error=job["error"])
                continue
            if entry["status"] != "done":
                self.tally.op(label, error=(
                    f"{entry['status']}: {entry.get('error')}"))
                continue
            key = entry["key"]
            if key not in digests:
                record = store.get(key) or {}
                digests[key] = record.get("manifest", {}).get(
                    "counter_digest")
            self.tally.op(label, (self.names[core], app, n, n // 4,
                                  self.seed), digest=digests[key])

    def _spans(self, jobs: list) -> Dict[str, List[float]]:
        """Per-job service segments from ``GET /jobs/<id>/trace``."""
        segments = {"journal_s": ("submitted", "journaled"),
                    "queue_s": ("journaled", "leased"),
                    "dispatch_s": ("leased", "started"),
                    "simulate_s": ("started", "simulated"),
                    "store_s": ("simulated", "stored")}
        out: Dict[str, List[float]] = {name: [] for name in segments}
        out.update(http_s=[], redeliveries=[])
        client = self._client_cls(self.url, timeout=30)
        try:
            for job in jobs:
                if job["entry"] is None:
                    continue
                events = client.trace(job["entry"]["id"])["events"]
                stamps = {}
                for event in events:
                    stamps.setdefault(event["ev"], event["ts"])
                for name, (first, last) in segments.items():
                    if first in stamps and last in stamps:
                        out[name].append(stamps[last] - stamps[first])
                end = stamps.get("completed", stamps.get("failed"))
                if end is not None:
                    out["http_s"].append(job["latency"]
                                         - (end - stamps["submitted"]))
                out["redeliveries"].append(sum(
                    1 for e in events if e["ev"] == "redelivered"))
        finally:
            client.close()
        return out

    def _run(self, seconds: float, trace: bool) -> None:
        distinct_kinstr = sum(n for _, _, n in set(self.draws)) / 1e3
        spans: Dict[str, List[float]] = {}
        requests, rejected, hits = [], [], []
        for index, traced in schedule(seconds, trace):
            if index:
                self._start_server(traced)
            wall, jobs = self._pass()
            self._book_kips(traced, distinct_kinstr, wall, wall)
            if trace and not traced:
                for name, values in self._spans(jobs).items():
                    spans.setdefault(name, []).extend(values)
            self._stop_server()
            self._check(jobs)
            shutil.rmtree(self.store_dir, ignore_errors=True)
            if traced:
                continue
            for job in jobs:
                self._book_latency(job["latency"])
            requests.append(sum(job["requests"] for job in jobs) / len(jobs))
            rejected.append(sum(job["rejected"] for job in jobs))
            hits.append(sum(1 for job in jobs if job["entry"]
                            and job["entry"].get("cached")) / len(jobs))
        self._note("jobs_per_s", [len(self.draws) / host_s
                                  for _, _, host_s in self.passes], "1/s")
        self._note("service.requests_per_job", requests, "count")
        self._note("service.rejected", rejected, "count")
        self._note("service.hit_frac", hits, "fraction")
        for name, values in spans.items():
            self._note(f"service.{name}", values,
                       "count" if name == "redeliveries" else "s")


def make(name: str, seed: int, work_dir: Path, goldens: dict) -> Workload:
    """The benchmark-size workload called ``name``."""
    from repro.experiments.common import QUICK_APPS
    if name == "sim-membound":
        return SimWorkload(seed, work_dir, goldens, MEMBOUND_APPS)
    if name == "sim-compute":
        return SimWorkload(seed, work_dir, goldens, COMPUTE_APPS)
    if name == "fig6-sweep":
        return Fig6Workload(seed, work_dir, goldens)
    if name == "service-jobs":
        return ServiceJobs(seed, work_dir, goldens, apps=QUICK_APPS)
    raise KeyError(f"unknown workload {name!r}")


WORKLOADS = ("sim-membound", "sim-compute", "fig6-sweep", "service-jobs")


def golden_specs(seeds: Sequence[int]) -> list:
    """``(core, app, n, warmup, trace seed index)`` of every simulation
    the benchmark-size workloads run with ``seeds``, for
    :mod:`e2e_goldens`."""
    return sorted({spec for seed in seeds for name in WORKLOADS
                   for spec in make(name, seed, Path("."), {}).specs()})
