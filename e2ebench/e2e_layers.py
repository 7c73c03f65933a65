"""Per-layer host-time attribution for the end-to-end benchmark.

A :class:`LayerClock` replaces the public methods of each simulator layer
with timing wrappers *on the class*, so every instance built afterwards
binds the wrapper.  That matters for the vector tier: the ino/casino
kernels hoist bound methods (``l1d.access``, ``lsu.load_issued`` ...) into
locals at kernel start, so class-level wrappers are still the ones called
and the kernels keep running (instance-level wrapping, as the repo's
``SelfProfiler`` does, would force the pure tier).

Self time is a call's wall time minus the wall time of wrapped calls it
made, so the layers nested inside ``CoreModel.run`` sum to its wall time.
Work the kernels inline (L1 hits, forwarding searches) is not a call and
lands in ``cores``.  The call stack is per clock, not per thread: only
one thread of a process may call wrapped layers.

Pool workers and servers are separate processes.  With
:meth:`LayerClock.share_with_children`, a forked child zeroes its copy of
the totals and rewrites ``layers-<pid>-<token>.json`` in the dump
directory each time an outermost call in :data:`FLUSH_AFTER` returns;
:func:`merge` folds those files into the collecting process's totals.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import uuid
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterable, List, Optional

#: layer -> [(module, class, methods)].  Layer names are module names.
LAYERS = {
    "workloads": [("repro.workloads.generator", "SyntheticWorkload",
                   ("generate",))],
    "engine": [("repro.engine.soatrace", "TraceArrays",
                ("from_instructions",))],
    "cores": [("repro.engine.core_base", "CoreModel", ("run",))],
    "frontend": [
        ("repro.frontend.fetch", "FetchUnit",
         ("tick", "pop_ready", "peek_ready", "resolve_branch", "squash")),
        ("repro.frontend.tage", "Tage", ("predict", "predict_update",
                                         "update")),
        ("repro.frontend.btb", "Btb", ("lookup", "lookup_update", "update")),
    ],
    "memory": [
        ("repro.memory.hierarchy", "MemoryHierarchy",
         ("load", "store", "ifetch")),
        ("repro.memory.cache", "Cache", ("access", "install_prefetch")),
        ("repro.memory.dram", "Dram", ("access",)),
        ("repro.memory.prefetcher", "StridePrefetcher", ("train",)),
    ],
    "lsu": [
        ("repro.cores.casino.lsu", "CasinoLsu",
         ("has_store_space", "has_load_space", "dispatch_store",
          "store_issued", "commit_store", "retire_head", "retire_quiescent",
          "load_issued", "commit_load", "squash")),
        ("repro.cores.casino.osca", "Osca", ("inc", "dec", "outstanding")),
        ("repro.cores.ooo", "StoreSets",
         ("on_violation", "store_dispatched", "predicted_store",
          "drop_squashed")),
        ("repro.cores.ooo", "OutOfOrderCore",
         ("_retire_stores", "_execute_load", "_store_resolved")),
        ("repro.cores.inorder", "InOrderCore",
         ("_retire_stores", "_forwarding_store")),
        ("repro.cores.lsc", "LoadSliceCore",
         ("_retire_stores", "_forwarding_store")),
        ("repro.cores.specino", "SpecInOCore",
         ("_retire_stores", "_forwarding_store")),
    ],
    "rename": [("repro.cores.casino.rename", "ConditionalRenamer",
                ("can_alloc", "can_pass", "rename_speculative",
                 "rename_passed", "on_iq_issue", "commit", "squash"))],
    "power": [("repro.power.accounting", "CorePowerModel",
               ("__init__", "add_dyn", "add_area", "energy"))],
    # The shared trace cache pool workers read before generating.  The
    # result store is not wrapped: a server calls it from its HTTP
    # threads, and the clock assumes one thread per process calls layers.
    "trace_store": [("repro.service.store", "TraceStore", ("get", "put"))],
}

#: Methods whose outermost return ends a child's dump interval: every
#: ``Runner`` simulation ends with ``CoreModel.run`` and then
#: ``CorePowerModel.energy``, so a job costs two dump writes whatever
#: the workload, not one per top-level power-model call.
FLUSH_AFTER = ("run", "energy")

CORE_KINDS = ("ino", "lsc", "freeway", "casino", "ooo", "specino")

#: Post-warmup Stats counters reported per 1000 committed instructions.
RATE_COUNTERS = {
    "frontend.bp_mispredicts_pki": "bp_mispredicts",
    "memory.l1d_misses_pki": "l1d_misses",
    "memory.l2_misses_pki": "l2_misses",
    "memory.dram_accesses_pki": "dram_accesses",
    "lsu.sq_searches_pki": "sq_searches",
}


def _empty_totals() -> dict:
    return {"self_s": {layer: 0.0 for layer in LAYERS},
            "calls": {layer: 0 for layer in LAYERS},
            # kind -> [instructions, run wall s, cycles, skipped cycles,
            #          committed after warmup]
            "cores": {kind: [0, 0.0, 0, 0, 0] for kind in CORE_KINDS},
            "counters": {name: 0.0 for name in RATE_COUNTERS.values()}}


class LayerClock:
    """Class-level timing wrappers plus the totals they accumulate."""

    def __init__(self) -> None:
        self.totals = _empty_totals()
        self._stack: List[float] = []     # child time of each open call
        self._undo: list = []
        self._dump_dir: Optional[Path] = None
        self._dump_path: Optional[Path] = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every method in :data:`LAYERS` (idempotent)."""
        if self._undo:
            return
        for layer, targets in LAYERS.items():
            for module_name, class_name, methods in targets:
                cls = getattr(importlib.import_module(module_name),
                              class_name)
                for name in methods:
                    raw = cls.__dict__[name]  # KeyError: the layer moved
                    self._undo.append((cls, name, raw))
                    setattr(cls, name,
                            self._rewrap(layer, raw, name in FLUSH_AFTER))

    def uninstall(self) -> None:
        """Restore the original methods."""
        while self._undo:
            cls, name, raw = self._undo.pop()
            setattr(cls, name, raw)

    def _rewrap(self, layer: str, raw, flush: bool):
        if isinstance(raw, classmethod):
            return classmethod(self._timed(layer, raw.__func__, flush))
        if layer == "cores":
            return self._timed_run(raw)
        return self._timed(layer, raw, flush)

    # -- wrappers ----------------------------------------------------------

    def _timed(self, layer: str, fn, flush: bool):
        stack = self._stack
        self_s = self.totals["self_s"]
        calls = self.totals["calls"]

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[layer] += elapsed - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed
                elif flush and self._dump_path is not None:
                    self._flush()

        return timed

    def _timed_run(self, fn):
        """``CoreModel.run``: self time plus per-core work counts, booked
        before the flush so a child's dump includes its last run."""
        stack = self._stack
        totals = self.totals

        @functools.wraps(fn)
        def run(core, trace, *args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                stats = fn(core, trace, *args, **kwargs)
                row = totals["cores"].get(core.kind)
                if row is not None:
                    row[0] += len(trace)
                    row[1] += perf_counter() - start
                    row[2] += core.cycle + 1
                    row[3] += core.ff_skipped_cycles
                    row[4] += int(stats.committed)
                    counters = totals["counters"]
                    for name in counters:
                        counters[name] += stats.counters.get(name, 0.0)
                return stats
            finally:
                elapsed = perf_counter() - start
                totals["self_s"]["cores"] += elapsed - stack.pop()
                totals["calls"]["cores"] += 1
                if stack:
                    stack[-1] += elapsed
                elif self._dump_path is not None:
                    self._flush()

        return run

    # -- cross-process totals ----------------------------------------------

    def share_with_children(self, dump_dir: Path) -> None:
        """Make forked children dump their totals into ``dump_dir``."""
        self._dump_dir = Path(dump_dir)
        self._dump_dir.mkdir(parents=True, exist_ok=True)
        os.register_at_fork(after_in_child=self._after_fork)

    def dump_here(self, dump_dir: Path) -> None:
        """Dump this process's totals too (a traced server process)."""
        self.share_with_children(dump_dir)
        self._after_fork()

    def _after_fork(self) -> None:
        if self._dump_dir is None:
            return
        fresh = _empty_totals()
        for section, values in fresh.items():
            self.totals[section].clear()
            self.totals[section].update(values)
        del self._stack[:]
        self._dump_path = (self._dump_dir /
                           f"layers-{os.getpid()}-{uuid.uuid4().hex[:8]}.json")

    def _flush(self) -> None:
        tmp = self._dump_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.totals))
        os.replace(tmp, self._dump_path)


def merge(totals_list: Iterable[dict]) -> dict:
    """Sum several processes' totals."""
    out = _empty_totals()
    for totals in totals_list:
        for layer, seconds in totals["self_s"].items():
            out["self_s"][layer] += seconds
        for layer, count in totals["calls"].items():
            out["calls"][layer] += count
        for kind, row in totals["cores"].items():
            out["cores"][kind] = [a + b for a, b in zip(out["cores"][kind],
                                                        row)]
        for name, value in totals["counters"].items():
            out["counters"][name] += value
    return out


def read_dumps(dump_dir: Path) -> List[dict]:
    """Totals every child process dumped into ``dump_dir``."""
    return [json.loads(path.read_text())
            for path in sorted(Path(dump_dir).glob("layers-*.json"))]


def summarize(totals: dict) -> Dict[str, float]:
    """Per-layer metrics from merged totals.

    Self times are normalised per simulated kinstr, so a run that gets
    through more passes does not read as a slower layer.
    """
    cores = totals["cores"]
    instrs = sum(row[0] for row in cores.values())
    if not instrs:
        raise RuntimeError("no traced CoreModel.run call completed")
    kinstr = instrs / 1e3
    out = {f"{layer}.self_us_per_kinstr": seconds * 1e6 / kinstr
           for layer, seconds in totals["self_s"].items()}
    cycles = sum(row[2] for row in cores.values())
    skipped = sum(row[3] for row in cores.values())
    out["engine.ff_skip_frac"] = skipped / cycles
    out["engine.us_per_stepped_cycle"] = (totals["self_s"]["cores"] * 1e6
                                          / (cycles - skipped))
    for kind, row in cores.items():
        out[f"cores.{kind}.kips"] = row[0] / row[1] / 1e3 if row[1] else 0.0
    committed = sum(row[4] for row in cores.values())
    for name, counter in RATE_COUNTERS.items():
        out[name] = totals["counters"][counter] * 1e3 / committed
    return out


#: SelfProfiler components reported as ``cores.stage.<name>.share``.
STAGES = ("commit", "dispatch", "schedule", "memory", "fetch", "run_loop")


def stage_shares(runs) -> Dict[str, float]:
    """Share of profiled run time per pipeline stage.

    ``runs`` yields ``(cfg, trace, warmup)``; each is simulated with the
    repo's ``SelfProfiler`` attached, which forces the pure tier, so only
    cores that run the pure tier anyway belong here.
    """
    from repro.cores import build_core
    from repro.obs.profile import SelfProfiler

    profiler = SelfProfiler()
    for cfg, trace, warmup in runs:
        build_core(cfg).run(trace, warmup=warmup, profiler=profiler)
    wall = profiler.wall
    return {f"cores.stage.{stage}.share":
            profiler.self_time.get(stage, 0.0) / wall for stage in STAGES}
