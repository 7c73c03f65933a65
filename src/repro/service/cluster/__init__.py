"""The simulation service: coordinator, nodes, async front door.

One **coordinator** owns the job registry, the bounded priority queue,
the authoritative content-addressed result store and the write-ahead
journal; **worker nodes** (each wrapping a lease-based
:class:`~repro.service.pool.SimulationPool`) register, heartbeat and
*pull* work — one node in the coordinator's own process sharing its
store, and any number of node processes or hosts over HTTP.  The layer
composition:

* :mod:`~repro.service.cluster.coordinator` — the state machine
  (roster, lease-per-node, journal-backed redelivery, cross-sweep
  dedup + in-flight coalescing).  No sockets: pure, lockable state.
* :mod:`~repro.service.cluster.frontdoor` — the asyncio HTTP/1.1 server
  multiplexing client submissions (JSON API, 429/503 contract,
  long-poll job status, input validation) and the node protocol
  (``/cluster/register|heartbeat|lease|complete``).
* :mod:`~repro.service.cluster.node` — the node agent: lease, simulate,
  report back with span events and telemetry snapshots riding the
  completion message; remote nodes also replicate (fetch-on-miss with
  digest verification).
* :mod:`~repro.service.cluster.replica` — the pull-through replica view
  of a content-addressed store (digest keys make replication trivially
  correct: verify the embedded sha256 on receipt, then cache locally).

``repro serve [--role coordinator|node]`` wires the pieces up.
"""

from repro.service.cluster.coordinator import (  # noqa: F401
    ClusterService,
    UnknownNodeError,
)
from repro.service.cluster.frontdoor import (  # noqa: F401
    ClusterFrontDoor,
    create_service,
    serve,
)
from repro.service.cluster.node import ClusterNode, run_node  # noqa: F401
from repro.service.cluster.replica import ReplicaStore  # noqa: F401
