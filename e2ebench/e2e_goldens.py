"""Golden counter digests: the benchmark's correctness oracle.

``goldens.json`` maps ``"<core>/<app>/<n>/<warmup>"`` to ``{trace seed
index: counter_digest}`` for every simulation the four workloads run at
their benchmark sizes for run seeds 0-15, computed by serial ``Runner``
simulation of the tree the benchmark was defined on.  Every op is
checked against it, so a change that alters any simulated counter fails
the benchmark.  A change that is meant to alter simulated results
regenerates the file (a few minutes on two CPUs):

    python3 e2ebench/e2e_goldens.py
"""

from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, Optional

GOLDENS_PATH = Path(__file__).with_name("goldens.json")
#: Run seeds the goldens cover.
GOLDEN_SEEDS = range(16)


def spec_key(core: str, app: str, n: int, warmup: int) -> str:
    return f"{core}/{app}/{n}/{warmup}"


def load() -> Dict[str, Dict[str, str]]:
    return json.loads(GOLDENS_PATH.read_text())


class DigestBook:
    """Checks each op's counter digest against the golden for its spec
    and trace seed index; one without a golden is checked against the
    first digest this run saw for it, so repeats must at least agree."""

    def __init__(self, goldens: Dict[str, Dict[str, str]]):
        self._goldens = goldens
        self._seen: Dict[tuple, str] = {}
        self.golden_checked = 0

    def check(self, core: str, app: str, n: int, warmup: int, seed: int,
              digest: str) -> Optional[str]:
        """``None`` when ``digest`` is right, else what is wrong."""
        key = spec_key(core, app, n, warmup)
        expected = self._goldens.get(key, {}).get(str(seed))
        if expected is not None:
            self.golden_checked += 1
            if digest != expected:
                return f"counter digest {digest} != golden {expected}"
            return None
        first = self._seen.setdefault((key, seed), digest)
        if digest != first:
            return f"counter digest {digest} != this run's earlier {first}"
        return None


def _digests(group) -> list:
    """Serial digests of every core of one (app, n, warmup, seed)."""
    from e2e_workloads import core_config, seeded_profile
    from repro.harness.runner import Runner
    from repro.obs.provenance import counter_digest

    cores, app, n, warmup, seed = group
    runner = Runner(n_instrs=n, warmup=warmup)
    profile = seeded_profile(app, seed)
    out = []
    for core in cores:
        cfg = core_config(core)
        stats = runner.run(cfg, profile).stats
        out.append((spec_key(cfg.name, app, n, warmup), seed,
                    counter_digest(stats)))
    return out


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from e2e_workloads import golden_specs

    groups = {}
    for core, app, n, warmup, seed in golden_specs(GOLDEN_SEEDS):
        groups.setdefault((app, n, warmup, seed), []).append(core)
    tasks = [(tuple(cores),) + key for key, cores in sorted(groups.items())]
    goldens: Dict[str, Dict[str, str]] = {}
    with ProcessPoolExecutor(max_workers=os.cpu_count()) as pool:
        for rows in pool.map(_digests, tasks):
            for key, seed, digest in rows:
                goldens.setdefault(key, {})[str(seed)] = digest
    GOLDENS_PATH.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(goldens[key], sort_keys=True)}"
        for key in sorted(goldens)) + "\n}\n")
    print(f"wrote {sum(map(len, goldens.values()))} digests for "
          f"{len(goldens)} specs to {GOLDENS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
