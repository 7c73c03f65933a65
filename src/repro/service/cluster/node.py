"""Worker-node agent: lease, simulate, report.

A :class:`ClusterNode` is one worker host of the service.  It wraps a
lease-based :class:`~repro.service.pool.SimulationPool` (per-worker
heartbeats, bounded redeliveries, dead-letters) and speaks the
coordinator's four node calls — ``register_node``, ``heartbeat``,
``try_lease``, ``complete``:

* ``repro serve`` runs one node **in process**: it calls those methods
  on the :class:`~repro.service.cluster.coordinator.ClusterService`
  directly, shares its result store (nothing to replicate, nothing to
  prefetch), and an idle node parks inside ``try_lease`` until work is
  queued.
* ``repro serve --role node`` talks to a remote coordinator through
  :class:`HttpCoordinator`, the same four methods over one keep-alive
  HTTP connection.  Each leased job is first tried against the node's
  pull-through :class:`ReplicaStore` (local store, then fetch-on-miss
  with sha256 verification); a hit completes with zero simulation, and
  a miss prefetches the job's input trace before simulating.

Either way, the loop is:

1. ``register`` with a capacity, then ``heartbeat`` periodically —
   every message renews liveness, so a busy node never goes suspect.
2. ``lease`` up to its idle capacity and run the jobs on the pool; pool
   span events (started / simulated / stored / redelivered /
   worker_died ...) are buffered per job, stamped with the node id, and
   ride the ``complete`` message back — together with a cumulative
   telemetry snapshot merging the node's own registry (worker count,
   lease events, pool counters) and every pool worker's.
3. A completion that cannot be delivered (coordinator briefly down) is
   parked in an outbox and retried — finished work is never dropped.

Transport failures degrade to backoff-and-retry; an ``unknown node``
rejection (coordinator restarted, or it declared us dead while we were
partitioned) triggers re-registration.  The journal lives coordinator-
side: node death is handled by lease reclaim + redelivery there, so the
node itself keeps no durable state beyond its store.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
from typing import Dict, List, Optional

from repro.obs.telemetry import (MetricsRegistry, get_logger, log_event,
                                 merge_snapshots)
from repro.service.cluster.coordinator import UnknownNodeError
from repro.service.cluster.replica import ReplicaStore
from repro.service.jobs import JobSpec
from repro.service.pool import SimulationPool
from repro.service.store import ResultStore, TraceStore

_LOG = get_logger("service.cluster.node")

#: Pool span events that count as lease events (and get a log line).
LEASE_EVENTS = ("lease_expired", "redelivered", "worker_died", "timeout")


def default_node_id() -> str:
    return f"node-{socket.gethostname()}-{os.getpid()}"


class HttpCoordinator:
    """The coordinator's node-facing methods over HTTP (``--role node``).

    Same signatures and return values as on
    :class:`~repro.service.cluster.coordinator.ClusterService`; an
    ``unknown node`` rejection raises :class:`UnknownNodeError`, and
    transport failures surface as ``OSError``.
    """

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        from repro.service.client import ServiceClient, ServiceError
        self.client = ServiceClient(url, timeout=timeout)
        self._service_error = ServiceError

    def _call(self, route: str, payload: dict) -> dict:
        try:
            return self.client._request(route, payload=payload)
        except self._service_error as exc:
            if exc.status in (404, 409, 410):
                raise UnknownNodeError(str(exc)) from exc
            raise

    def register_node(self, node_id: str, capacity: int = 1,
                      meta: Optional[dict] = None) -> dict:
        return self._call("/cluster/register",
                          {"node": node_id, "capacity": capacity,
                           "meta": meta})

    def heartbeat(self, node_id: str,
                  telemetry: Optional[dict] = None) -> dict:
        return self._call("/cluster/heartbeat",
                          {"node": node_id, "telemetry": telemetry})

    def try_lease(self, node_id: str, max_jobs: int = 1,
                  wait_s: float = 0.0) -> List[dict]:
        return self._call("/cluster/lease",
                          {"node": node_id, "max_jobs": max_jobs,
                           "wait_s": wait_s}).get("jobs", [])

    def complete(self, node_id: str, job_id: str, record: dict,
                 span_events: Optional[List[dict]] = None,
                 telemetry: Optional[dict] = None,
                 key: Optional[str] = None) -> dict:
        return self._call("/cluster/complete",
                          {"node": node_id, "job": job_id, "key": key,
                           "record": record, "spans": span_events,
                           "telemetry": telemetry})

    def fetch(self, key: str) -> Optional[dict]:
        """``GET /results/<key>``; any failure is a miss (the job just
        simulates locally)."""
        try:
            return self.client.result(key)
        except (self._service_error, OSError):
            return None

    def close(self) -> None:
        self.client.close()


class ClusterNode:
    """One worker node.  ``coordinator`` is a coordinator URL (a remote
    node with its own store under ``store_dir``) or a
    :class:`~repro.service.cluster.coordinator.ClusterService` (the
    in-process node, which shares the service's store and attaches
    itself as ``service.local_node``).  ``pool`` replaces the default
    pool of ``workers`` workers."""

    def __init__(self, coordinator, store_dir=None,
                 node_id: Optional[str] = None,
                 workers: Optional[int] = 1,
                 heartbeat_s: float = 1.0,
                 lease_wait_s: float = 0.5,
                 job_timeout_s: Optional[float] = None,
                 telemetry: bool = True,
                 pool: Optional[SimulationPool] = None) -> None:
        self.remote = isinstance(coordinator, str)
        if self.remote:
            coordinator = HttpCoordinator(coordinator)
            self.store = ResultStore(store_dir)
            self.replica = ReplicaStore(self.store, coordinator.fetch)
            # Pull-through replica of the coordinator's published
            # traces, rooted on the shard the pool workers read: a
            # prefetched container means no worker here pays generation.
            self.traces = TraceStore(self.store.root / "traces",
                                     fetch=coordinator.fetch)
        else:
            self.store = coordinator.store
            self.replica = self.traces = None
            coordinator.local_node = self
        self.coordinator = coordinator
        self.node_id = node_id or (default_node_id() if self.remote
                                   else "local")
        self.heartbeat_s = heartbeat_s
        self.lease_wait_s = lease_wait_s
        self.pool = pool or SimulationPool(n_workers=workers,
                                           store=self.store,
                                           timeout=job_timeout_s,
                                           telemetry=telemetry)
        self.pool.on_event = self._pool_event
        self.capacity = self.pool.n_workers
        #: With ``telemetry`` off no snapshot rides the node's messages.
        self.report_telemetry = telemetry
        self.telemetry = MetricsRegistry()
        self._m_leased = self.telemetry.counter(
            "repro_node_jobs_leased_total", "Jobs leased by this node")
        self._m_replica = self.telemetry.counter(
            "repro_node_replica_hits_total",
            "Leased jobs served from the replica store with no simulation")
        self._m_completed = self.telemetry.counter(
            "repro_node_jobs_reported_total",
            "Completions delivered to the coordinator")
        #: pool job id -> cluster job dict (id/key/spec/...).
        self._inflight: Dict[int, dict] = {}
        #: cluster job id -> buffered span events for the completion.
        self._span_buf: Dict[str, List[dict]] = {}
        #: undeliverable completion payloads, retried every step.
        self._outbox: List[dict] = []
        self._registered = False
        self._draining = False
        self._last_hb = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.stats = {"leased": 0, "replica_served": 0, "reported": 0,
                      "report_retries": 0, "reregistrations": 0,
                      "traces_prefetched": 0}

    # -- pool span plumbing ----------------------------------------------------

    def _pool_event(self, pool_id: int, event: str, **attrs) -> None:
        job = self._inflight.get(pool_id)
        if job is None:
            return
        record = {"ev": event, "ts": round(time.time(), 6),
                  "node": self.node_id}
        record.update(attrs)
        self._span_buf.setdefault(job["id"], []).append(record)
        if event in LEASE_EVENTS:
            self.telemetry.counter(
                "repro_lease_events_total",
                "Lease reclaims, redeliveries and worker deaths by kind",
                event=event).inc()
            log_event(_LOG, f"service.{event}", job=job["id"], **attrs)

    # -- protocol --------------------------------------------------------------

    def _snapshot(self) -> Optional[dict]:
        if not self.report_telemetry:
            return None
        t = self.telemetry
        t.gauge("repro_workers_alive",
                "Live pool worker processes").set(self.pool.alive_workers())
        for name, value in sorted(self.pool.stats_snapshot().items()):
            if isinstance(value, bool) \
                    or not isinstance(value, (int, float)):
                continue
            t.gauge(f"repro_pool_{name}",
                    f"Gauge mirror of the pool counter {name!r}").set(value)
        return merge_snapshots([t.snapshot()]
                               + self.pool.telemetry_snapshots())

    def register(self) -> None:
        self.coordinator.register_node(self.node_id, capacity=self.capacity)
        self._registered = True
        self._last_hb = time.monotonic()
        log_event(_LOG, "node.registered", node=self.node_id,
                  capacity=self.capacity)

    def _heartbeat(self) -> None:
        response = self.coordinator.heartbeat(self.node_id,
                                              telemetry=self._snapshot())
        self._last_hb = time.monotonic()
        self._draining = bool(response.get("draining"))

    def _lease(self) -> None:
        idle = self.capacity - len(self._inflight)
        if idle <= 0 or self._draining:
            return
        # Park for work only when nothing runs: a busy node returns to
        # its pool at once.
        jobs = self.coordinator.try_lease(
            self.node_id, idle,
            wait_s=0.0 if self._inflight else self.lease_wait_s)
        self._last_hb = time.monotonic()
        for job in jobs:
            self.stats["leased"] += 1
            self._m_leased.inc()
            spec = JobSpec(**job["spec"])
            if self.remote:
                record = self.replica.get(job["key"])
                if record is not None:
                    # Pull-through replication hit: no simulation at all.
                    self.stats["replica_served"] += 1
                    self._m_replica.inc()
                    self._span_buf.setdefault(job["id"], []).append(
                        {"ev": "store_hit", "ts": round(time.time(), 6),
                         "node": self.node_id, "replica": True})
                    self._queue_completion(job, record)
                    continue
                self._prefetch_trace(spec)
            pool_id = self.pool.submit(spec)
            self._inflight[pool_id] = job
            if self.pool.done(pool_id):
                # Synchronous resolution (store hit inside the pool, or
                # serial fallback) — report right away.
                self._finish(pool_id)

    def _prefetch_trace(self, spec: JobSpec) -> None:
        """Best-effort pull of the job's input trace from the
        coordinator into the shared on-disk cache (verified container
        bytes, never materialized here).  A miss means the first pool
        worker generates locally, exactly as before."""
        try:
            before = self.traces.stats["fetched"]
            self.traces.prefetch(spec.workload_profile(), spec.n_instrs)
            if self.traces.stats["fetched"] > before:
                self.stats["traces_prefetched"] += 1
        except Exception:
            pass  # malformed spec profile etc.: the worker will report

    def _queue_completion(self, job: dict, record: dict) -> None:
        self._outbox.append({
            "job_id": job["id"], "key": job["key"], "record": record,
            "span_events": self._span_buf.pop(job["id"], []),
        })

    def _finish(self, pool_id: int) -> None:
        self._queue_completion(self._inflight.pop(pool_id),
                               self.pool.record(pool_id))

    def _flush_outbox(self) -> None:
        while self._outbox:
            try:
                self.coordinator.complete(self.node_id,
                                          telemetry=self._snapshot(),
                                          **self._outbox[0])
            except OSError:
                self.stats["report_retries"] += 1
                return  # coordinator unreachable; retry next step
            self._outbox.pop(0)
            self._last_hb = time.monotonic()
            self.stats["reported"] += 1
            self._m_completed.inc()

    # -- main loop -------------------------------------------------------------

    def step(self, block_s: float = 0.05) -> None:
        """One scheduling beat: heartbeat if due, lease up to idle
        capacity, pump the pool, report completions."""
        try:
            if not self._registered:
                self.register()
                self.stats["reregistrations"] += 1
            if time.monotonic() - self._last_hb >= self.heartbeat_s:
                self._heartbeat()
            self._lease()
        except UnknownNodeError:
            # Coordinator restarted or declared us dead: start over.
            self._registered = False
            log_event(_LOG, "node.reregister", node=self.node_id)
        except OSError:
            time.sleep(min(self.heartbeat_s, 0.5))  # coordinator down
        self.pool.tick(block_s=block_s)
        for pool_id in [p for p in list(self._inflight)
                        if self.pool.done(p)]:
            self._finish(pool_id)
        self._flush_outbox()

    def run(self) -> None:
        """Step until :meth:`stop`, or until a drain finds nothing left
        to finish.  The caller closes the node afterwards."""
        self.pool.start()
        while not self._stop.is_set():
            self.step()
            if self._draining and not self._inflight \
                    and not self._outbox:
                break

    def start(self) -> None:
        """Register, then :meth:`run` in a background thread (the
        in-process node of ``repro serve``)."""
        self.pool.start()
        self.register()
        self._thread = threading.Thread(target=self.run,
                                        name=f"node-{self.node_id}",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Leave the loop after the current step (joins, for up to 5 s,
        a node that :meth:`start` put in a thread)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def close(self) -> None:
        try:
            self.pool.close()
        finally:
            if self.remote:
                self.coordinator.close()


def run_node(coordinator_url: str, store_dir,
             node_id: Optional[str] = None, workers: int = 1,
             heartbeat_s: float = 1.0,
             job_timeout_s: Optional[float] = None) -> ClusterNode:
    """Blocking CLI entry for ``repro serve --role node``.

    SIGTERM/SIGINT stop leasing, finish in-flight work, deliver the
    outbox and exit — the node-side analogue of the coordinator's drain.
    """
    node = ClusterNode(coordinator_url, store_dir, node_id=node_id,
                       workers=workers, heartbeat_s=heartbeat_s,
                       job_timeout_s=job_timeout_s)

    def _stop(signum, frame):
        node.stop()

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, _stop)
        except ValueError:  # not the main thread (tests)
            pass
    print(f"[node {node.node_id}] coordinator={coordinator_url} "
          f"workers={node.capacity}", flush=True)
    try:
        node.run()
    finally:
        node.close()
    print(f"[node {node.node_id}] stopped "
          f"(reported={node.stats['reported']})", flush=True)
    return node
