"""Idealised SpecInO limit model (Section II-C, Figure 2).

An InO core augmented with a sliding speculative window over its 16-entry
IQ: each cycle the window examines ``WS`` entries; ready instructions are
issued immediately (out of program order), otherwise the window slides by
``SO`` entries toward younger instructions.  The study assumes ideal
renaming and ideal memory disambiguation ("instructions are renamed properly
and the architectural state is updated correctly"), so there are no PRF
limits and no order-violation squashes; the ``Non-mem`` variant forbids
speculative issue of loads/stores to separate the ILP contribution from MLP.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.engine.core_base import CoreModel, InflightInst


class SpecInOCore(CoreModel):
    """The SpecInO[WS, SO] limit machine of Figure 2."""

    kind = "specino"

    def _reset(self) -> None:
        self.iq: Deque[InflightInst] = deque()
        self.window: list = []   # issued-not-committed, kept sorted by seq
        self.sb: Deque[InflightInst] = deque()
        self.spec_pos = 1
        self.next_commit = 0     # program-order commit cursor (seq)

    def pipeline_empty(self) -> bool:
        return not self.iq and not self.window and not self.sb

    def _debug_state(self) -> str:  # pragma: no cover
        return (f"iq={list(self.iq)[:4]} window={self.window[:4]} "
                f"sb={len(self.sb)} spec_pos={self.spec_pos} "
                f"next_commit={self.next_commit}")

    def _occupancy(self):
        return {"iq": (len(self.iq), self.cfg.iq_size),
                "window": (len(self.window), self.cfg.rob_size),
                "sb": (len(self.sb), self.cfg.sq_sb_size)}

    # -- cycle-accounting hooks ----------------------------------------------

    def _commit_head(self):
        """The instruction at the commit cursor: in the window if it issued
        (possibly speculatively), else the oldest unissued IQ entry."""
        if self.window and self.window[0].seq == self.next_commit:
            return self.window[0]
        for entry in self.iq:
            if entry.issue_at is None:
                return entry
        return self.window[0] if self.window else None

    def _stall_structure(self, head):
        return "window" if head.issue_at is not None else "iq"

    def _issue_gate(self):
        for entry in self.iq:
            if entry.issue_at is None:
                return entry
        return None

    def _step(self, cycle: int) -> None:
        self._retire_stores(cycle)
        self._commit(cycle)
        budget = self.cfg.width
        budget = self._issue_head(cycle, budget)
        self._issue_window(cycle, budget)
        self._dispatch(cycle)

    # -- store buffer (same as the InO baseline) --------------------------------

    def _retire_stores(self, cycle: int) -> None:
        if not self.sb:
            return
        head = self.sb[0]
        if not self.store_fill_arrived(head, cycle):
            return
        if not self.fu.take_store_port():
            return
        self.sb.popleft()
        self.stats.add("sb_retires")

    def _commit(self, cycle: int) -> None:
        committed = 0
        while (self.window and committed < self.cfg.width
               and self.window[0].seq == self.next_commit
               and self.window[0].done_at is not None
               and self.window[0].done_at <= cycle):
            entry = self.window[0]
            if entry.inst.is_store:
                if len(self.sb) >= self.cfg.sq_sb_size:
                    break
                self.sb.append(entry)
                self.start_store_fill(entry, cycle)
            del self.window[0]
            self.next_commit = entry.seq + 1
            self.note_commit(entry, cycle)
            committed += 1

    # -- in-order head issue ------------------------------------------------------

    def _issue_head(self, cycle: int, budget: int) -> int:
        while budget > 0 and self.iq:
            entry = self.iq[0]
            if entry.issue_at is not None:
                # Already issued speculatively; just drain it.
                self.iq.popleft()
                self._slide_on_pop()
                continue
            if not entry.ready(cycle):
                break
            if len(self.window) >= self.cfg.rob_size:
                break
            if not self.fu.take(entry.inst.op):
                break
            self.iq.popleft()
            self._slide_on_pop()
            self._execute(entry, cycle)
            self.stats.add("issued_head")
            budget -= 1
        return budget

    def _slide_on_pop(self) -> None:
        self.spec_pos = max(1, self.spec_pos - 1)

    # -- speculative sliding window -------------------------------------------------

    def _issue_window(self, cycle: int, budget: int) -> None:
        cfg = self.cfg
        if len(self.iq) <= 1:
            return
        self.spec_pos = min(self.spec_pos, len(self.iq) - 1)
        issued_any = False
        end = min(self.spec_pos + cfg.specino_ws, len(self.iq))
        for index in range(self.spec_pos, end):
            if budget <= 0:
                break
            entry = self.iq[index]
            if entry.issue_at is not None:
                continue
            if entry.inst.is_mem and not cfg.specino_mem:
                continue
            if not entry.ready(cycle):
                continue
            if len(self.window) >= cfg.rob_size:
                break
            if not self.fu.take(entry.inst.op):
                continue
            self._execute(entry, cycle)
            self.stats.add("issued_spec")
            issued_any = True
            budget -= 1
        if not issued_any:
            self.spec_pos = min(self.spec_pos + cfg.specino_so,
                                max(1, len(self.iq) - 1))

    # -- execution ---------------------------------------------------------------

    def _execute(self, entry: InflightInst, cycle: int) -> None:
        inst = entry.inst
        entry.issue_at = cycle
        # Insert in program order so the commit scan stays a head check.
        pos = len(self.window)
        while pos > 0 and self.window[pos - 1].seq > entry.seq:
            pos -= 1
        self.window.insert(pos, entry)
        if inst.is_load:
            forward = self._forwarding_store(entry)
            if forward is not None:
                entry.done_at = cycle + 2
                entry.forward_store = forward
            else:
                entry.done_at = cycle + self.load_latency(entry, cycle)
        elif inst.is_store:
            entry.done_at = cycle + 1
        else:
            entry.done_at = cycle + inst.latency
        if self.tracer is not None:
            self.trace_issue(entry, cycle)
        self.resolve_branch_if_gating(entry)
        self._schedule_wakeup(entry)

    def _forwarding_store(self, load: InflightInst) -> Optional[InflightInst]:
        """Oracle disambiguation: forward from the youngest older store
        already resolved; unresolved older stores are ignored (ideal)."""
        best = None
        for store in self.window:
            if (store.inst.is_store and store.seq < load.seq
                    and store.inst.overlaps(load.inst)):
                if best is None or store.seq > best.seq:
                    best = store
        for store in self.sb:
            if store.inst.overlaps(load.inst):
                if best is None or store.seq > best.seq:
                    best = store
        return best

    def _dispatch(self, cycle: int) -> None:
        space = self.cfg.iq_size - len(self.iq)
        for inst in self.fetch.pop_ready(cycle, min(space, self.cfg.width)):
            self.iq.append(self.make_entry(inst))
            self.stats.add("dispatched")

    # -- event-driven fast forward --------------------------------------------

    def _next_event_cycle(self, cycle: int):
        cand = []
        # Fetch first: it is the usual reason a stepped cycle is busy (every
        # check is read-only, so the order is free).
        if not self._fetch_quiescent(cycle, cand):
            return None
        rates = {}
        cfg = self.cfg
        if self.sb:
            head = self.sb[0]
            if head.fill_ready is not None and head.fill_ready > cycle:
                cand.append(head.fill_ready)
            else:
                return None  # SB head retires
        if self.window:
            head = self.window[0]
            if (head.seq == self.next_commit and head.done_at is not None
                    and head.done_at <= cycle):
                if not (head.inst.is_store
                        and len(self.sb) >= cfg.sq_sb_size):
                    return None  # head would commit
                # full SB blocks commit silently (no counter)
        if self.iq:
            head = self.iq[0]
            if head.issue_at is not None:
                return None  # drain pop (and spec_pos slide-back) mutates
            if (head.ready(cycle) and len(self.window) < cfg.rob_size
                    and not self.fu.zero_capacity(head.inst.op)):
                return None  # head would issue
        if len(self.iq) > 1:
            if self.spec_pos > len(self.iq) - 1:
                return None  # window-start clamp mutates spec_pos
            end = min(self.spec_pos + cfg.specino_ws, len(self.iq))
            for index in range(self.spec_pos, end):
                entry = self.iq[index]
                if entry.issue_at is not None:
                    continue
                if entry.inst.is_mem and not cfg.specino_mem:
                    continue
                if not entry.ready(cycle):
                    continue
                if len(self.window) >= cfg.rob_size:
                    break
                if self.fu.zero_capacity(entry.inst.op):
                    continue
                return None  # a window entry would issue speculatively
            if self.spec_pos != min(self.spec_pos + cfg.specino_so,
                                    max(1, len(self.iq) - 1)):
                return None  # the window would slide; only a saturated
                # window position is a stable (skippable) state
        if not self._dispatch_quiescent(cycle, cand,
                                        cfg.iq_size - len(self.iq)):
            return None
        return self._finish_hint(cand, rates)
