"""Worker pool: parity with serial, caching, faults, timeouts."""

import dataclasses
import os
import signal
import time

import pytest

from repro.common.params import make_casino_config, make_ino_config, make_ooo_config
from repro.service.jobs import JobSpec, execute_job
from repro.service.pool import SimulationPool
from repro.service.store import ResultStore
from repro.workloads.suite import SUITE

N, WARMUP = 1200, 200


def _specs(pairs, **kw):
    factories = {"ino": make_ino_config, "casino": make_casino_config,
                 "ooo": make_ooo_config}
    return [JobSpec.make(factories[core](), SUITE[app],
                         n_instrs=N, warmup=WARMUP, **kw)
            for core, app in pairs]


PAIRS = [("ino", "hmmer"), ("casino", "hmmer"),
         ("ino", "mcf"), ("casino", "mcf")]


class TestParity:
    def test_pool_records_identical_to_serial(self):
        """Acceptance: pooled execution is counter-digest-identical to
        serial execution on every core x app pair."""
        specs = _specs(PAIRS)
        serial = [execute_job(spec) for spec in specs]
        with SimulationPool(n_workers=2) as pool:
            pooled = pool.run_batch(specs)
        for ser, par, (core, app) in zip(serial, pooled, PAIRS):
            assert not par["failed"], (core, app, par.get("error"))
            assert ser == par, f"pool diverged from serial on {core}/{app}"
            assert ser["manifest"]["counter_digest"] == \
                par["manifest"]["counter_digest"]

    def test_batch_preserves_order(self):
        specs = _specs(PAIRS)
        with SimulationPool(n_workers=2) as pool:
            records = pool.run_batch(specs)
        assert [(r["core"], r["app"]) for r in records] == PAIRS


class TestStoreIntegration:
    def test_warm_rerun_performs_zero_simulations(self, tmp_path):
        """Acceptance: an immediate rerun against a warm store serves
        everything from cache — zero jobs reach a worker."""
        specs = _specs(PAIRS)
        store = ResultStore(tmp_path / "store")
        with SimulationPool(n_workers=2, store=store) as pool:
            cold = pool.run_batch(specs)
            assert pool.stats["dispatched"] == len(specs)
        assert len(store) == len(specs)

        rerun_store = ResultStore(tmp_path / "store")
        with SimulationPool(n_workers=2, store=rerun_store) as pool:
            warm = pool.run_batch(specs)
            assert pool.stats["dispatched"] == 0
            assert pool.stats["cached"] == len(specs)
        assert rerun_store.stats["hits"] == len(specs)
        assert rerun_store.stats["misses"] == 0
        assert warm == cold

    def test_failure_records_not_stored(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        bad = dataclasses.replace(
            _specs([("ino", "hmmer")])[0], n_instrs=0, warmup=0)
        with SimulationPool(n_workers=1, store=store) as pool:
            (record, ) = pool.run_batch([bad])
        if record["failed"]:  # only failed runs must stay out of the store
            assert len(store) == 0


class TestFaults:
    def test_worker_death_contained_and_job_recovered(self):
        """A job that kills its worker is redelivered to a fresh worker
        and still completes; the pool respawns and finishes the rest of
        the batch."""
        specs = _specs([("ino", "hmmer"), ("ino", "mcf")])
        specs[0] = dataclasses.replace(specs[0], test_kill=1)
        with SimulationPool(n_workers=1, max_worker_deaths=3) as pool:
            records = pool.run_batch(specs)
            stats = pool.stats_snapshot()
        assert stats["worker_deaths"] >= 1
        assert stats["redeliveries"] >= 1
        for record in records:
            assert not record["failed"]

    def test_poison_job_dead_letters_after_redelivery_budget(self):
        """A job that kills every worker it touches is quarantined as a
        dead-letter after its redelivery budget, instead of taking the
        whole fleet down; innocent jobs still complete."""
        specs = _specs([("ino", "hmmer"), ("ino", "mcf")])
        specs[0] = dataclasses.replace(specs[0], test_kill=99)
        with SimulationPool(n_workers=1, max_worker_deaths=10,
                            max_redeliveries=2) as pool:
            records = pool.run_batch(specs)
            stats = pool.stats_snapshot()
        assert records[0]["failed"]
        assert records[0]["status"] == "dead_letter"
        assert not records[1]["failed"]
        assert stats["dead_lettered"] == 1
        # first delivery + max_redeliveries redeliveries, then quarantine
        assert stats["worker_deaths"] == 3

    def test_stalled_heartbeat_lease_reclaimed_bit_identical(self):
        """A worker that stops heartbeating loses its lease; the job is
        redelivered and the rerun is counter-digest identical to serial
        execution."""
        specs = _specs([("ino", "hmmer")])
        serial = execute_job(specs[0])
        specs[0] = dataclasses.replace(specs[0], test_stall_s=30.0)
        with SimulationPool(n_workers=1, lease_s=0.6,
                            heartbeat_s=0.1) as pool:
            (record, ) = pool.run_batch(specs)
            stats = pool.stats_snapshot()
        assert stats["lease_expired"] >= 1
        assert stats["redeliveries"] >= 1
        assert not record["failed"]
        assert record["manifest"]["counter_digest"] == \
            serial["manifest"]["counter_digest"]

    def test_degrades_to_serial_after_max_deaths(self):
        specs = _specs([("ino", "hmmer"), ("ino", "mcf"), ("ino", "milc")])
        specs[0] = dataclasses.replace(specs[0], test_kill=True)
        with SimulationPool(n_workers=1, max_worker_deaths=1) as pool:
            records = pool.run_batch(specs)
            assert pool.degraded
            stats = pool.stats_snapshot()
        assert stats["worker_deaths"] == 1
        assert stats["serial_fallbacks"] >= len(specs) - 1
        for record in records:
            assert not record["failed"]

    def test_job_timeout_enforced(self):
        slow = _specs([("casino", "mcf")])
        slow[0] = dataclasses.replace(slow[0], n_instrs=400_000,
                                      warmup=1000)
        with SimulationPool(n_workers=1, timeout=0.4) as pool:
            (record, ) = pool.run_batch(slow)
            stats = pool.stats_snapshot()
        assert record["failed"]
        assert record["status"] == "timeout"
        assert stats["timeouts"] == 1

    def test_frozen_worker_killed_and_job_redelivered(self):
        """A worker frozen mid-job (SIGSTOP: alive, but silent) loses its
        lease; the reclaim must really end the process — SIGTERM would
        stay pending on a stopped one — and the redelivered job is
        counter-digest identical to serial execution."""
        spec = JobSpec.make(make_ino_config(), SUITE["mcf"],
                            n_instrs=60_000, warmup=2000)
        events, started = [], {}

        def on_event(job_id, event, **attrs):
            events.append(event)
            if event == "started" and not started:
                started.update(pid=attrs["pid"], at=time.monotonic())

        frozen = None
        with SimulationPool(n_workers=1, lease_s=0.6,
                            heartbeat_s=0.1) as pool:
            pool.on_event = on_event
            try:
                job = pool.submit(spec)
                deadline = time.monotonic() + 120
                while not pool.done(job):
                    assert time.monotonic() < deadline, events
                    pool.tick(block_s=0.02)
                    if frozen is None and started \
                            and time.monotonic() - started["at"] > 0.3:
                        frozen = started["pid"]
                        os.kill(frozen, signal.SIGSTOP)
                record = pool.record(job)
                stats = pool.stats_snapshot()
                with pytest.raises(ProcessLookupError):
                    os.kill(frozen, 0)  # reaped, not left stopped
            finally:
                if frozen is not None:
                    try:
                        os.kill(frozen, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
        assert events[:3] == ["started", "lease_expired", "redelivered"]
        assert stats["lease_expired"] == 1
        assert not record["failed"]
        # Serial run last: forked workers would inherit its memoised
        # result and never simulate at all.
        serial = execute_job(spec)
        assert record["manifest"]["counter_digest"] == \
            serial["manifest"]["counter_digest"]

    def test_trace_evictions_reported(self):
        with SimulationPool(n_workers=1) as pool:
            pool.run_batch(_specs([("ino", "hmmer")]))
            snapshot = pool.stats_snapshot()
        assert "trace_evictions" in snapshot
        assert snapshot["trace_evictions"] >= 0
