"""Absolute counter pins: every core against the benchmark's goldens.

``e2ebench/goldens.json`` maps ``"<core>/<app>/<n>/<warmup>"`` to the
counter digest of each trace seed index, computed once from a reference
tree.  These tests re-simulate a slice of it (every core on the 2000/500
specs at seed index 0, plus ino and casino at the sim-* size on two
apps) and require the exact digest, so any change to a simulated counter
fails tier-1 instead of only the benchmark.  The file is only read here;
a change meant to alter results regenerates it with
``python3 e2ebench/e2e_goldens.py``.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.common import params
from repro.harness.runner import Runner
from repro.obs.provenance import counter_digest
from repro.workloads.suite import get_profile

GOLDENS = json.loads((Path(__file__).resolve().parents[1] / "e2ebench"
                      / "goldens.json").read_text())

FACTORIES = ("make_ino_config", "make_lsc_config", "make_freeway_config",
             "make_casino_config", "make_ooo_config", "make_specino_config")
CONFIGS = {cfg.name: cfg for cfg in
           (getattr(params, factory)() for factory in FACTORIES)}


def _specs(n, warmup):
    """``{core name: [app, ...]}`` of every golden at this size."""
    out = {}
    for key in GOLDENS:
        core, app, key_n, key_warmup = key.rsplit("/", 3)
        if (int(key_n), int(key_warmup)) == (n, warmup):
            out.setdefault(core, []).append(app)
    return {core: sorted(apps) for core, apps in sorted(out.items())}


def _profile(app, k=0):
    """The e2ebench trace-seed rule: seed index ``k`` shifts the
    profile's seed by ``1000 * k``."""
    profile = get_profile(app)
    return dataclasses.replace(profile, seed=profile.seed + 1000 * k)


def _check(runner, core, apps):
    n, warmup = runner.n_instrs, runner.warmup
    wrong = {}
    for app in apps:
        digest = counter_digest(runner.run(CONFIGS[core],
                                           _profile(app)).stats)
        expected = GOLDENS[f"{core}/{app}/{n}/{warmup}"]["0"]
        if digest != expected:
            wrong[app] = (digest, expected)
    assert not wrong, wrong


SMALL = _specs(2000, 500)


def test_small_specs_cover_every_core():
    assert sorted(SMALL) == sorted(CONFIGS)
    assert sum(len(apps) for apps in SMALL.values()) == 48


@pytest.mark.parametrize("core", sorted(SMALL))
def test_every_core_matches_goldens(core):
    _check(Runner(n_instrs=2000, warmup=500), core, SMALL[core])


@pytest.mark.parametrize("core", ["ino", "casino"])
def test_sim_size_matches_goldens(core):
    _check(Runner(n_instrs=8000, warmup=2000), core, ["hmmer", "mcf"])
