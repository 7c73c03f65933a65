#!/usr/bin/env python3
"""A/A noise check: the untraced benchmark, repeated on unchanged code.

    python3 e2ebench/aa.py [--runs 10]

Runs ``e2e.py --trace 0`` ``--runs`` times per workload of
``BENCHMARK.json``, interleaving the workloads and giving run i seed i,
then prints for each end-to-end metric its median, quartiles and spread
(quartile distance over median, quartiles as ``statistics.quantiles(
values, n=4)`` gives them) against its bound.  A spread above a third
of its bound (``setup_s`` excepted) is flagged: lengthen that metric's
runs rather than loosening the bound.  Each run's result line goes to
standard error as it finishes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values) -> tuple:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def run_once(workload: str, seed: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "e2e.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, wall_s=wall)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="A/A noise check")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    runs = []
    for seed in range(args.runs):
        for workload in workloads:
            runs.append(run_once(workload, seed))
            print(json.dumps(runs[-1]), file=sys.stderr, flush=True)

    status = 0
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        walls = [r["wall_s"] for r in mine]
        print(f"== {workload}: {len(mine)} runs, wall {min(walls):.1f}-"
              f"{max(walls):.1f}s, all correct: "
              f"{all(r['correct'] for r in mine)}")
        if not all(r["correct"] for r in mine):
            status = 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in mine]
            median, q1, q3, wide = spread(values)
            verdict = ("-" if name == "setup_s" else
                       "ok" if wide <= bound / 3 else
                       "within bound" if wide <= bound else "WIDE")
            print(f"   {name:<16} median {median:12.5g}  q1 {q1:12.5g}  "
                  f"q3 {q3:12.5g}  spread {wide:7.2%}  bound {bound:5.0%}"
                  f"  {verdict}")
    print(f"mean wall time of one run: "
          f"{statistics.fmean(r['wall_s'] for r in runs):.1f}s")
    return status


if __name__ == "__main__":
    sys.exit(main())
