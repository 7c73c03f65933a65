"""Baseline stall-on-use in-order core (Section III-A).

Strictly in-order issue from a 16-entry IQ; the pipeline stalls only when
the instruction at the IQ head has unready sources (so independent work
behind a cache-missing load keeps issuing until its *consumer* reaches the
head).  A small scoreboard (SCB) window enforces in-order write-back/commit,
and committed stores drain through a 4-entry store buffer into the L1D.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.engine.core_base import CoreModel, InflightInst


class InOrderCore(CoreModel):
    """Table I's ``InO`` model."""

    kind = "ino"

    def _reset(self) -> None:
        self.iq: Deque[InflightInst] = deque()
        self.scb: Deque[InflightInst] = deque()   # issued, in-order completion
        self.sb: Deque[InflightInst] = deque()    # committed stores to retire

    def pipeline_empty(self) -> bool:
        return not self.iq and not self.scb and not self.sb

    def _debug_state(self) -> str:  # pragma: no cover
        return (f"iq={list(self.iq)[:4]} scb={list(self.scb)[:4]} "
                f"sb={len(self.sb)}")

    def _occupancy(self):
        return {"iq": (len(self.iq), self.cfg.iq_size),
                "scb": (len(self.scb), self.cfg.scb_size),
                "sb": (len(self.sb), self.cfg.sq_sb_size)}

    # -- cycle-accounting hooks ----------------------------------------------

    def _commit_head(self):
        """Oldest uncommitted instruction: SCB head (issued, awaiting
        in-order write-back) or, with an empty SCB, the stalled IQ head."""
        if self.scb:
            return self.scb[0]
        if self.iq:
            return self.iq[0]
        return None

    def _stall_structure(self, head):
        return "scb" if self.scb and head is self.scb[0] else "iq"

    def _issue_gate(self):
        return self.iq[0] if self.iq else None

    # -- pipeline stages -----------------------------------------------------

    def _step(self, cycle: int) -> None:
        # Guards mirror each stage's own early-out so stalled cycles skip
        # the call entirely; the stages stay correct when called directly.
        sb = self.sb
        if sb:
            fill_ready = sb[0].fill_ready
            if fill_ready is not None and fill_ready <= cycle:
                self._retire_stores(cycle)
        scb = self.scb
        if scb:
            done = scb[0].done_at
            if done is not None and done <= cycle:
                self._commit(cycle)
        if self.iq:
            self._issue(cycle)
        fq = self.fetch.queue
        if fq and fq[0][0] <= cycle:
            self._dispatch(cycle)

    def _retire_stores(self, cycle: int) -> None:
        """Drain the store-buffer head into the L1D (one per cycle); a
        write miss holds the entry until its fill (started at commit)
        arrives."""
        if not self.sb:
            return
        head = self.sb[0]
        if not self.store_fill_arrived(head, cycle):
            return
        if not self.fu.take_store_port():
            return
        self.sb.popleft()
        self.stats.counters["sb_retires"] += 1.0

    def _commit(self, cycle: int) -> None:
        """In-order write-back/commit from the SCB head."""
        committed = 0
        counters = self.stats.counters
        cfg = self.cfg
        width = cfg.width
        scb = self.scb
        sb = self.sb
        note_commit = self.note_commit
        while scb and committed < width:
            entry = scb[0]
            done = entry.done_at
            if done is None or done > cycle:
                break
            if entry.inst.is_store:
                if len(sb) >= cfg.sq_sb_size:
                    counters["sb_full_stalls"] += 1.0
                    break
                sb.append(entry)
                self.start_store_fill(entry, cycle)
                counters["sb_writes"] += 1.0
            scb.popleft()
            note_commit(entry, cycle)
            committed += 1
        if committed:
            counters["scb_access"] += float(committed)

    def _issue(self, cycle: int) -> None:
        """Strict in-order issue: stop at the first non-issuable head.

        Execute is folded in: a load searches the SCB/SB for a forwarding
        store (else goes to the L1D), a store moves to the SQ/SB path in
        one cycle, everything else takes its op latency."""
        issued = 0
        counters = self.stats.counters
        cfg = self.cfg
        width = cfg.width
        iq = self.iq
        scb = self.scb
        fu_take = self.fu.take
        while iq and issued < width:
            entry = iq[0]
            if entry.n_pending and not entry.ready(cycle):
                counters["issue_stall_src"] += 1.0
                break
            if len(scb) >= cfg.scb_size:
                counters["issue_stall_scb"] += 1.0
                break
            inst = entry.inst
            if not fu_take(inst.op):
                counters["issue_stall_fu"] += 1.0
                break
            iq.popleft()
            entry.issue_at = cycle
            if inst.is_load:
                forward = self._forwarding_store(entry)
                if forward is not None:
                    entry.done_at = cycle + 2  # store->load forward
                    entry.forward_store = forward
                    counters["stl_forwards"] += 1.0
                else:
                    entry.done_at = cycle + self.load_latency(entry, cycle)
            elif inst.is_store:
                entry.done_at = cycle + 1  # address+data move to the SQ/SB path
            else:
                entry.done_at = cycle + inst.latency
                if inst.is_branch:
                    self.resolve_branch_if_gating(entry)
            if self.tracer is not None:
                self.trace_issue(entry, cycle)
            self._schedule_wakeup(entry)
            scb.append(entry)
            issued += 1
        if issued:
            # Every issue writes its SCB entry; every commit reads one.
            counters["issued"] += float(issued)
            counters["scb_access"] += float(issued)

    def _forwarding_store(self, load: InflightInst) -> Optional[InflightInst]:
        """Youngest older store (SCB or SB) writing the load's bytes.

        All older instructions have issued (in-order issue), so every older
        store address is resolved: InO needs no speculation machinery.
        """
        self.stats.add("sb_search")
        best = None
        for store in self.scb:
            if store.inst.is_store and store.seq < load.seq \
                    and store.inst.overlaps(load.inst):
                if best is None or store.seq > best.seq:
                    best = store
        if best is None:
            for store in self.sb:
                if store.inst.overlaps(load.inst):
                    if best is None or store.seq > best.seq:
                        best = store
        return best

    def _dispatch(self, cycle: int) -> None:
        fq = self.fetch.queue
        if not fq or fq[0][0] > cycle:
            return
        iq = self.iq
        space = self.cfg.iq_size - len(iq)
        width = self.cfg.width
        insts = self.fetch.pop_ready(cycle, space if space < width else width)
        if insts:
            make_entry = self.make_entry
            for inst in insts:
                iq.append(make_entry(inst))
            self.stats.counters["dispatched"] += float(len(insts))

    # -- event-driven fast forward --------------------------------------------

    def _next_event_cycle(self, cycle: int):
        """Mirror of ``_step``'s stage gates, read-only: ``None`` as soon
        as any stage would act this cycle, else the stall counters each
        blocked stage bumps per cycle plus the unblock-time candidates."""
        # The frontend first: it is the usual reason a stepped cycle is
        # busy (every check is read-only, so the order is free).
        cand = []
        if not self._dispatch_quiescent(cycle, cand,
                                        self.cfg.iq_size - len(self.iq)):
            return None
        if not self._fetch_quiescent(cycle, cand):
            return None
        rates = {}
        if self.sb:
            head = self.sb[0]
            if head.fill_ready is not None and head.fill_ready > cycle:
                cand.append(head.fill_ready)
            else:
                return None  # fill arrived: head retires (port free at start)
        if self.scb:
            head = self.scb[0]
            if head.done_at is not None and head.done_at <= cycle:
                if not (head.inst.is_store
                        and len(self.sb) >= self.cfg.sq_sb_size):
                    return None  # head would commit
                rates["sb_full_stalls"] = 1
            # else: completion is on the wakeup calendar
        if self.iq:
            head = self.iq[0]
            if not head.ready(cycle):
                rates["issue_stall_src"] = 1
            elif len(self.scb) >= self.cfg.scb_size:
                rates["issue_stall_scb"] = 1
            elif not self.fu.zero_capacity(head.inst.op):
                return None  # head would issue
            else:
                rates["issue_stall_fu"] = 1
        return self._finish_hint(cand, rates)
