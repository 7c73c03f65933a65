"""CASINO load/store unit (Sections III-C4, IV-2, IV-3).

The SQ and SB are one physical CAM structure, logically split by pointers:
a store enters the SQ part when it leaves the S-IQ, moves to the SB part at
commit, and retires to the L1D from the SB head.  Memory disambiguation uses
the *on-commit value-check*: a speculatively-issued load places a sentinel
on the oldest relevant unresolved older store; at commit it re-searches the
SB up to that sentinel and flushes on an address match.  The OSCA lets loads
with no outstanding matching stores skip the associative search entirely.

Four disambiguation modes cover Figure 8:

* ``fully_ooo``     — conventional LQ, violations found by resolving stores;
* ``agi_ordering``  — memory ops issue in program order, no speculation;
* ``nolq``          — on-commit value-check without the OSCA filter;
* ``nolq_osca``     — value-check plus OSCA (the CASINO design point).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.common.params import (
    CoreConfig,
    DISAMBIG_AGI_ORDERING,
    DISAMBIG_FULLY_OOO,
    DISAMBIG_NOLQ,
    DISAMBIG_NOLQ_OSCA,
)
from repro.common.stats import Stats
from repro.cores.casino.osca import Osca
from repro.engine.core_base import InflightInst


class CasinoLsu:
    """Unified SQ/SB with sentinel tracking and the OSCA filter."""

    def __init__(self, cfg: CoreConfig, hierarchy, stats: Stats) -> None:
        self.cfg = cfg
        self.hier = hierarchy
        self.stats = stats
        self.mode = cfg.disambiguation
        self.sq: Deque[InflightInst] = deque()   # program order, SQ then SB part
        self.lq: List[InflightInst] = []         # fully_ooo mode only
        # store entry -> seq of the youngest load holding a sentinel on it
        self.sentinels: Dict[InflightInst, int] = {}
        #: Set by the fully_ooo mode when a resolving store catches a
        #: prematurely-issued load; the core polls and squashes.
        self.violation_seq: Optional[int] = None
        self.osca: Optional[Osca] = None
        if self.mode == DISAMBIG_NOLQ_OSCA:
            self.osca = Osca(cfg.osca_entries, cfg.osca_granule,
                             cfg.sq_sb_size, stats)
        # Speculative loads currently pinning their cache lines (TSO).
        self._line_pins: List[InflightInst] = []

    # -- capacity ---------------------------------------------------------------

    def has_store_space(self) -> bool:
        return len(self.sq) < self.cfg.sq_sb_size

    def has_load_space(self) -> bool:
        if self.mode != DISAMBIG_FULLY_OOO:
            return True
        return len(self.lq) < self.cfg.lq_size

    @property
    def empty(self) -> bool:
        return not self.sq

    # -- store lifecycle -----------------------------------------------------------

    def dispatch_store(self, entry: InflightInst) -> None:
        """Store leaves the S-IQ: allocate its SQ entry (tail)."""
        self.sq.append(entry)
        self.stats.counters["sq_writes"] += 1.0

    def store_issued(self, store: InflightInst, cycle: int) -> None:
        """The store's address resolved (it issued)."""
        if self.osca is not None:
            self.osca.inc(store.inst.mem_addr, store.inst.mem_size)
        if self.mode == DISAMBIG_FULLY_OOO:
            self._lq_violation_check(store, cycle)

    def commit_store(self, store: InflightInst, cycle: int) -> None:
        """ROB commit: the entry logically moves from SQ part to SB part,
        and its write-allocate fill starts."""
        store.committed = True
        latency = self.hier.store(store.inst.mem_addr, cycle)
        hit = self.hier.l1d.cfg.latency
        store.fill_ready = cycle + max(0, latency - hit)

    def retire_head(self, cycle: int, fu) -> None:
        """Drain the SB head into the L1D (blocked by sentinels)."""
        if not self.sq or not self.sq[0].committed:
            return
        head = self.sq[0]
        if head in self.sentinels:
            self.stats.counters["sb_sentinel_blocks"] += 1.0
            return
        if head.fill_ready is None or cycle < head.fill_ready:
            return
        if not fu.take_store_port():
            return
        self.sq.popleft()
        self.stats.counters["sb_retires"] += 1.0
        if self.osca is not None:
            self.osca.dec(head.inst.mem_addr, head.inst.mem_size)

    def retire_quiescent(self, cycle: int, rates: Dict[str, int],
                         cand: List[int]) -> bool:
        """Fast-forward twin of :meth:`retire_head`, strictly read-only:
        True when the SB head provably does not retire at ``cycle``
        (recording the per-cycle counter it bumps while blocked, or the
        fill-arrival cycle as an event candidate); False when it would."""
        if not self.sq or not self.sq[0].committed:
            return True
        head = self.sq[0]
        if head in self.sentinels:
            rates["sb_sentinel_blocks"] = 1
            return True
        if head.fill_ready is None or cycle < head.fill_ready:
            if head.fill_ready is not None:
                cand.append(head.fill_ready)
            return True
        return False

    # -- load issue ------------------------------------------------------------------

    def load_issued(self, load: InflightInst, cycle: int,
                    from_iq: bool) -> Optional[InflightInst]:
        """Handle a load issuing; returns the forwarding store, if any.

        Also snapshots the relevant unresolved older stores and sets the
        sentinel per Section III-C4 (value-check modes only).
        """
        if self.mode == DISAMBIG_FULLY_OOO:
            return self._load_issued_lq(load, cycle)

        unresolved = []
        if not from_iq and self.mode != DISAMBIG_AGI_ORDERING:
            unresolved = [s for s in self.sq
                          if s.seq < load.seq and s.issue_at is None]
        skip_search = False
        if self.osca is not None:
            skip_search = self.osca.outstanding(
                load.inst.mem_addr, load.inst.mem_size) == 0
            if skip_search:
                self.stats.counters["osca_search_skips"] += 1.0
                load.osca_skipped = True
        forward = None
        if not skip_search:
            self.stats.counters["sq_searches"] += 1.0
            forward = self._youngest_forwarder(load)
        if forward is not None:
            # Only unresolved stores younger than the forwarder matter.
            unresolved = [s for s in unresolved if s.seq > forward.seq]
        load.unresolved_older = unresolved
        if unresolved:
            # Sentinel on the oldest relevant unresolved store; younger
            # loads replace older sentinel owners.
            target = min(unresolved, key=lambda s: s.seq)
            load.sentinel_on = target
            previous = self.sentinels.get(target)
            if previous is None or load.seq > previous:
                self.sentinels[target] = load.seq
            self.stats.counters["sentinels_set"] += 1.0
        if not from_iq:
            # Load->load ordering (TSO): pin the cache line so remote
            # invalidations are withheld until this load commits.
            self.hier.add_line_sentinel(load.inst.mem_addr)
            self._line_pins.append(load)
        return forward

    def _youngest_forwarder(self, load: InflightInst) -> Optional[InflightInst]:
        forward = None
        for store in self.sq:
            if (store.seq < load.seq and store.issue_at is not None
                    and store.inst.overlaps(load.inst)):
                if forward is None or store.seq > forward.seq:
                    forward = store
        return forward

    # -- conventional-LQ mode (Figure 8 "Fully OoO") ------------------------------------

    def _load_issued_lq(self, load: InflightInst,
                        cycle: int) -> Optional[InflightInst]:
        self.stats.add("sq_searches")
        self.stats.add("lq_writes")
        self.lq.append(load)
        return self._youngest_forwarder(load)

    def _lq_violation_check(self, store: InflightInst, cycle: int) -> None:
        self.stats.add("lq_searches")
        victim = None
        for load in self.lq:
            if (load.seq > store.seq and load.issue_at is not None
                    and load.inst.overlaps(store.inst)):
                source = load.forward_store
                if source is None or source.seq < store.seq:
                    if victim is None or load.seq < victim.seq:
                        victim = load
        if victim is not None:
            self.stats.add("mem_order_violations")
            self.violation_seq = victim.seq

    # -- load commit (value-check) ----------------------------------------------------

    def commit_load(self, load: InflightInst, cycle: int) -> bool:
        """Validate a committing load; True => memory-order violation.

        In the value-check modes a speculative load (one that recorded
        unresolved older stores) re-searches the SB from the tail to its
        sentinel; an address match means a violation.
        """
        if self.mode == DISAMBIG_FULLY_OOO:
            if load in self.lq:
                self.lq.remove(load)
            self.stats.add("lq_reads")
            return False
        self._unpin_line(load)
        violation = False
        if load.unresolved_older:
            self.stats.add("sq_searches")
            self.stats.add("sq_commit_searches")
            for store in load.unresolved_older:
                if store.inst.overlaps(load.inst):
                    violation = True
                    break
            target = load.sentinel_on
            if target is not None and self.sentinels.get(target) == load.seq:
                del self.sentinels[target]
        if violation:
            self.stats.add("mem_order_violations")
        return violation

    def _unpin_line(self, load: InflightInst) -> None:
        if load in self._line_pins:
            self._line_pins.remove(load)
            self.hier.remove_line_sentinel(load.inst.mem_addr)

    # -- squash ---------------------------------------------------------------------

    def squash(self, from_seq: int) -> None:
        """Drop stores at/after ``from_seq``; unwind OSCA and sentinels."""
        for load in [l for l in self._line_pins if l.seq >= from_seq]:
            self._unpin_line(load)
        while self.sq and self.sq[-1].seq >= from_seq:
            store = self.sq.pop()
            if self.osca is not None and store.issue_at is not None:
                self.osca.dec(store.inst.mem_addr, store.inst.mem_size)
            self.sentinels.pop(store, None)
        # Sentinels owned by squashed loads are cleared (Section III-C5).
        stale = [s for s, owner in self.sentinels.items() if owner >= from_seq]
        for store in stale:
            del self.sentinels[store]
        if self.mode == DISAMBIG_FULLY_OOO:
            self.lq = [l for l in self.lq if l.seq < from_seq]
