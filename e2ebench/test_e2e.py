"""Smoke test of the end-to-end benchmark at tiny sizes (well under 60 s).

    python3 -m pytest e2ebench/test_e2e.py

Every workload runs in-process, traced (which also runs its untraced
passes), so one run per workload yields every metric BENCHMARK.json
names.
"""

import json
import os
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import e2e  # noqa: E402
import e2e_workloads as wl  # noqa: E402
from e2e_layers import LayerClock  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Layers whose wrapped calls happen outside ``CoreModel.run``.
OUTSIDE_RUN = ("workloads", "power", "trace_store")


def tiny(name, work_dir):
    if name == "sim-membound":
        return wl.SimWorkload(0, work_dir, {}, apps=("mcf", "milc"),
                              n=1500, warmup=300)
    if name == "sim-compute":
        return wl.SimWorkload(0, work_dir, {}, apps=("hmmer", "gobmk"),
                              n=1500, warmup=300)
    if name == "fig6-sweep":
        return wl.Fig6Workload(0, work_dir, {}, n=1000, warmup=250,
                               warm_passes=2, apps=("mcf", "hmmer"))
    return wl.ServiceJobs(0, work_dir, {}, apps=("hmmer", "mcf"),
                          ns=(1000,), submissions=18)


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_workload_emits_every_metric(name, tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    work = tiny(name, tmp_path)
    try:
        work.setup()
        work.run(0.1, trace=True)
    finally:
        work.close()
    result = dict(work.outcome(), setup_s=[0.1], peak_rss_mb=1.0)
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["failures"]
    for kind, metrics in (("end_to_end", e2e.end_to_end(result)),
                          ("per_layer", e2e.per_layer(result))):
        for metric in SPEC[kind]:
            value, unit, _ = metrics[metric["name"]]
            assert unit == metric["unit"], metric["name"]
            assert value == value, metric["name"]  # not NaN


def _trace(app="mcf", n=3000):
    from repro.workloads.generator import SyntheticWorkload
    return SyntheticWorkload(wl.seeded_profile(app, 0)).generate(n)


def test_kernels_survive_the_wrappers():
    from repro.cores import build_core
    trace = _trace()
    clock = LayerClock()
    clock.install()
    try:
        for name in ("ino", "casino"):
            core = build_core(wl.core_config(name))
            core.run(trace, warmup=500)
            assert core.engine_tier_used == "vector", name
    finally:
        clock.uninstall()
    assert clock.totals["calls"]["memory"] > 0


@pytest.mark.parametrize("name", wl.ALL_CORES)
def test_self_times_sum_to_run_wall(name):
    from repro.cores import build_core
    trace = _trace()
    clock = LayerClock()
    clock.install()
    try:
        core = build_core(wl.core_config(name))
        start = time.perf_counter()
        core.run(trace, warmup=500)
        wall = time.perf_counter() - start
    finally:
        clock.uninstall()
    inside = sum(seconds for layer, seconds in clock.totals["self_s"].items()
                 if layer not in OUTSIDE_RUN)
    assert abs(inside - wall) <= 0.05 * wall, (inside, wall)
