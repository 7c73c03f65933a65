"""The lease policy of the simulation service, written once.

Jobs are leased to two kinds of holder: a pool's worker processes
(keyed by pid, with an entry only while the worker holds a job) and the
coordinator's nodes (keyed by node id).  Both run the same policy:

* a :class:`LivenessTable` remembers when each holder was last heard
  from; silence escalates it ``alive -> suspect -> dead`` (suspect is a
  grace period: a hung holder is not yet a dead one), and any message
  moves a suspect holder back to ``alive``.  A dead holder stays dead —
  its leases are reclaimed and it must be re-added.
* :func:`redelivery_verdict` decides what happens to a reclaimed job:
  back to the queue, or — once its deliveries exceed the redelivery
  budget — a dead-letter record naming the cause, so a poison job
  cannot take down holder after holder.

Only the clocks differ: a pool worker is suspect after ``lease_s`` and
dead after ``lease_s + heartbeat_s``; a node after ``suspect_after_s``
and ``dead_after_s``.
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, List, Optional, Tuple

ALIVE, SUSPECT, DEAD = "alive", "suspect", "dead"

#: Liveness states, in escalation order.
STATES = (ALIVE, SUSPECT, DEAD)


class LivenessTable:
    """Holder -> entry, where each entry carries ``state`` and
    ``last_hb`` (monotonic time of the last message) beside whatever
    its owner keeps there (the leased job, a lease set, ...)."""

    def __init__(self, suspect_after_s: float, dead_after_s: float) -> None:
        self.suspect_after_s = suspect_after_s
        self.dead_after_s = max(dead_after_s, suspect_after_s)
        self.entries: Dict[Hashable, dict] = {}

    def add(self, holder, now: Optional[float] = None, **fields) -> None:
        """(Re-)enter ``holder`` as alive."""
        self.entries[holder] = {
            "state": ALIVE,
            "last_hb": time.monotonic() if now is None else now, **fields}

    def touch(self, holder, now: Optional[float] = None) -> Optional[str]:
        """A message from ``holder``: renew it and return the state it
        was in (``None`` if unknown).  A dead holder is left dead."""
        entry = self.entries.get(holder)
        if entry is None or entry["state"] == DEAD:
            return None if entry is None else DEAD
        previous = entry["state"]
        entry["state"] = ALIVE
        entry["last_hb"] = time.monotonic() if now is None else now
        return previous

    def sweep(self, now: Optional[float] = None
              ) -> List[Tuple[Hashable, str, float]]:
        """Escalate silent holders; returns ``(holder, new state,
        silent seconds)`` for every holder that changed state."""
        now = time.monotonic() if now is None else now
        moved = []
        for holder, entry in self.entries.items():
            if entry["state"] == DEAD:
                continue
            silent = now - entry["last_hb"]
            if silent > self.dead_after_s:
                entry["state"] = DEAD
            elif silent > self.suspect_after_s and entry["state"] == ALIVE:
                entry["state"] = SUSPECT
            else:
                continue
            moved.append((holder, entry["state"], silent))
        return moved


def redelivery_verdict(attempts: int, max_redeliveries: int,
                       cause: str) -> Optional[str]:
    """``None`` to redeliver a reclaimed job after ``attempts``
    deliveries, else the dead-letter error naming ``cause``."""
    if attempts > max_redeliveries:
        return f"dead-lettered after {attempts} deliveries (last: {cause})"
    return None
