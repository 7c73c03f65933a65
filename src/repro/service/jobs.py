"""Job specs and the worker-side execute function.

A :class:`JobSpec` is the picklable, JSON-able description of one
simulation: full core/memory/profile field dicts plus trace lengths and
retry policy.  :func:`execute_job` runs one spec inside a worker process
through a (per-process, reused) :class:`ResilientRunner` — so pool
workers get retry-with-reseed, failure capture and the bounded trace
cache for free — and returns a **deterministic** result record: no wall
times or per-worker state, so two workers computing the same spec write
byte-identical store entries.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.common.params import CoreConfig, MemoryConfig
from repro.common.stats import Stats
from repro.harness.runner import RunResult
from repro.power.accounting import EnergyReport
from repro.workloads.generator import WorkloadProfile

#: Version of the result-record layout carried inside store entries.
RECORD_SCHEMA = 1


@dataclass
class JobSpec:
    """One simulation request, fully self-describing and picklable."""

    core: dict                      # dataclasses.asdict(CoreConfig)
    profile: dict                   # dataclasses.asdict(WorkloadProfile)
    n_instrs: int = 24_000
    warmup: int = 6_000
    mem: Optional[dict] = None      # dataclasses.asdict(MemoryConfig)
    sanitize: Optional[bool] = None
    retries: int = 1
    accounting: bool = False
    #: Test hook: makes the *worker process* exit hard before simulating
    #: while the delivery attempt is <= ``test_kill`` (so ``True``/1
    #: kills only the first delivery and the job completes on
    #: redelivery; a large value is a poison job that dead-letters).
    #: Ignored when executing serially in the parent.
    test_kill: int = 0
    #: Test hook: on the *first* delivery only, stall for this many
    #: seconds before heartbeats start, so the parent's lease provably
    #: expires and the reclaim path redelivers the job.
    test_stall_s: float = 0.0
    #: Telemetry trace id minted at submit.  Pure observability: it is
    #: NOT part of :meth:`key`, so traced and untraced submissions of
    #: the same simulation share one store entry, and old journaled spec
    #: dicts (which lack the field) still rebuild via ``JobSpec(**d)``.
    trace_id: Optional[str] = None

    @classmethod
    def make(cls, cfg: CoreConfig, profile: WorkloadProfile,
             n_instrs: int = 24_000, warmup: int = 6_000,
             mem_cfg: Optional[MemoryConfig] = None, **kw) -> "JobSpec":
        return cls(core=dataclasses.asdict(cfg),
                   profile=dataclasses.asdict(profile),
                   n_instrs=n_instrs, warmup=warmup,
                   mem=dataclasses.asdict(mem_cfg) if mem_cfg else None,
                   **kw)

    # -- materialised views ----------------------------------------------------

    def core_config(self) -> CoreConfig:
        return CoreConfig(**self.core)

    def workload_profile(self) -> WorkloadProfile:
        return WorkloadProfile(**self.profile)

    def memory_config(self) -> Optional[MemoryConfig]:
        if self.mem is None:
            return None
        mem = dict(self.mem)
        from repro.common.params import CacheConfig, DramConfig
        for level in ("l1i", "l1d", "l2"):
            if isinstance(mem.get(level), dict):
                mem[level] = CacheConfig(**mem[level])
        if isinstance(mem.get("dram"), dict):
            mem["dram"] = DramConfig(**mem["dram"])
        return MemoryConfig(**mem)

    def key(self) -> str:
        from repro.service.store import result_key
        return result_key(self.core_config(), self.workload_profile(),
                          self.n_instrs, self.warmup, self.memory_config())

    def label(self) -> str:
        return f"{self.core.get('name')}/{self.profile.get('name')}"


# -- worker-side execution ---------------------------------------------------

#: Per-process runner cache, keyed by the runner-shaping spec fields.
#: Reusing the runner across jobs keeps the (bounded, LRU) trace cache
#: warm inside a long-lived worker.
_RUNNERS: Dict[Tuple, "object"] = {}

#: Set by the pool's worker main so test hooks only fire inside workers.
IN_WORKER = False

#: Cross-process trace cache (service.store.TraceStore), set by the
#: pool's worker main when the pool shares traces.  All of a process's
#: runners share it, so the first worker to generate an (app, seed, n)
#: trace publishes it for the whole fleet.
TRACE_STORE = None

#: Worker-local metrics registry (obs.telemetry.MetricsRegistry), set by
#: the pool's worker main when telemetry is enabled.  Cumulative
#: snapshots ride back on result messages and are merged parent-side —
#: the registry observes only host-side timing, never simulated state,
#: so result records stay byte-identical with telemetry on or off.
TELEMETRY = None


def telemetry_snapshot() -> Optional[dict]:
    """This process's cumulative metrics snapshot (None when disabled)."""
    if TELEMETRY is None:
        return None
    return TELEMETRY.snapshot()


def _runner_for(spec: JobSpec):
    from repro.harness.resilience import ResilientRunner
    key = (spec.n_instrs, spec.warmup, spec.sanitize, spec.retries,
           spec.accounting,
           None if spec.mem is None else tuple(sorted(map(str, spec.mem.items()))))
    runner = _RUNNERS.get(key)
    if runner is None:
        runner = ResilientRunner(
            n_instrs=spec.n_instrs, warmup=spec.warmup,
            mem_cfg=spec.memory_config(), sanitize=spec.sanitize,
            retries=spec.retries, accounting=spec.accounting,
            trace_store=TRACE_STORE)
        _RUNNERS[key] = runner
    return runner


def trace_evictions() -> int:
    """Total trace-cache evictions across this process's runners."""
    return sum(r.trace_evictions for r in _RUNNERS.values())


def trace_store_stats() -> Optional[dict]:
    """This process's shared-trace-cache counters (None when unshared)."""
    if TRACE_STORE is None:
        return None
    return TRACE_STORE.stats_snapshot()


def result_record(res: RunResult, spec: JobSpec) -> dict:
    """Deterministic, JSON-able record of one RunResult.

    Everything volatile (wall time, worker identity) stays out; the
    manifest contributes only identity + counter-digest fields.
    """
    from repro.obs.provenance import run_manifest
    profile = spec.workload_profile()
    record = {
        "schema": RECORD_SCHEMA,
        "core": res.core.name,
        "app": res.app,
        "failed": bool(res.failed),
        "error": res.error,
        "n_instrs": spec.n_instrs,
        "warmup": spec.warmup,
        "ipc": res.ipc,
        # int/float-ness is preserved: the counter digest of the
        # reconstructed Stats must match the live one bit for bit.
        "counters": {k: (v if isinstance(v, int) else float(v))
                     for k, v in res.stats.counters.items()},
        "energy": {
            "dynamic_j": res.energy.dynamic_j,
            "leakage_j": res.energy.leakage_j,
            "by_group": dict(res.energy.by_group),
            "cycles": res.energy.cycles,
            "committed": res.energy.committed,
        },
        "manifest": run_manifest(res.core, profile, stats=res.stats),
    }
    if res.accounting is not None:
        record["accounting"] = res.accounting
    return record


def record_to_result(record: dict, spec: JobSpec) -> RunResult:
    """Rebuild a RunResult (Stats, EnergyReport) from a stored record."""
    stats = Stats()
    for name, value in record.get("counters", {}).items():
        stats.counters[name] = value
    energy = record.get("energy", {})
    report = EnergyReport(
        dynamic_j=energy.get("dynamic_j", 0.0),
        leakage_j=energy.get("leakage_j", 0.0),
        by_group=dict(energy.get("by_group", {})),
        cycles=energy.get("cycles", stats.cycles),
        committed=energy.get("committed", stats.committed))
    return RunResult(core=spec.core_config(), app=record.get("app", ""),
                     stats=stats, energy=report,
                     failed=bool(record.get("failed")),
                     error=record.get("error"),
                     accounting=record.get("accounting"))


def failure_record(spec: JobSpec, error: str, status: str = "error") -> dict:
    """Placeholder record for a job the pool could not complete (worker
    death, timeout, dead-letter).  Never written to the store."""
    return {"schema": RECORD_SCHEMA, "core": spec.core.get("name"),
            "app": spec.profile.get("name"), "failed": True,
            "error": error, "status": status,
            "n_instrs": spec.n_instrs, "warmup": spec.warmup,
            "ipc": 0.0, "counters": {}, "energy": {}}


def execute_job(spec: JobSpec, attempt: int = 1) -> dict:
    """Run one spec (in this process) and return its result record.

    ``SimulationError`` never escapes: the underlying ResilientRunner
    retries with reseeded traces and degrades to a ``failed`` record.
    ``attempt`` is the pool's delivery count (1 on first delivery); the
    fault-injection hooks key off it so a transiently-faulty job
    succeeds once redelivered while a poison job keeps failing.
    """
    if IN_WORKER and attempt <= int(spec.test_kill or 0):
        import os
        os._exit(43)
    runner = _runner_for(spec)
    if TELEMETRY is None:
        res = runner.run(spec.core_config(), spec.workload_profile())
    else:
        import time
        t0 = time.perf_counter()
        res = runner.run(spec.core_config(), spec.workload_profile())
        elapsed = time.perf_counter() - t0
        TELEMETRY.histogram(
            "repro_worker_sim_seconds",
            "Wall time one worker spent simulating a job").observe(elapsed)
        TELEMETRY.counter(
            "repro_worker_jobs_total",
            "Jobs executed by workers, by outcome",
            outcome="failed" if res.failed else "ok").inc()
    runner.drain()  # failure bookkeeping is per-job, not per-process
    return result_record(res, spec)
