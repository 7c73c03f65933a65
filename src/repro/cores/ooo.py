"""Conventional out-of-order core (Section II-B baseline).

Full register renaming (48 INT / 24 FP physical registers), a 16-entry
CAM-wakeup issue queue with oldest-first select, a 32-entry ROB, and a
conventional LSU: 16-entry load queue plus a unified 8-entry store
queue/buffer.  Loads issue speculatively past unresolved stores, moderated
by a store-set memory dependence predictor (Chrysos & Emer); a resolving
store searches the LQ for prematurely-issued younger loads and squashes on
a match.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.common.params import NUM_FP_ARCH, NUM_INT_ARCH
from repro.engine.core_base import CoreModel, InflightInst


class StoreSets:
    """Store-set memory dependence predictor."""

    def __init__(self) -> None:
        self.ssit: Dict[int, int] = {}           # pc -> store-set id
        self.lfst: Dict[int, InflightInst] = {}  # set id -> last in-flight store
        self._next_set = 0

    def on_violation(self, store_pc: int, load_pc: int) -> None:
        """Merge the store and load into one set (simplified merge rule)."""
        sid = self.ssit.get(store_pc)
        if sid is None:
            sid = self.ssit.get(load_pc)
        if sid is None:
            sid = self._next_set
            self._next_set += 1
        self.ssit[store_pc] = sid
        self.ssit[load_pc] = sid

    def store_dispatched(self, store: InflightInst) -> None:
        sid = self.ssit.get(store.inst.pc)
        if sid is not None:
            self.lfst[sid] = store

    def predicted_store(self, load: InflightInst) -> Optional[InflightInst]:
        """LFST lookup at load *dispatch*: the in-flight store this load is
        predicted to depend on (Chrysos & Emer read the LFST in the front
        end, so only older stores can be returned)."""
        sid = self.ssit.get(load.inst.pc)
        if sid is None:
            return None
        store = self.lfst.get(sid)
        if store is not None and store.seq < load.seq:
            return store
        return None

    def drop_squashed(self, from_seq: int) -> None:
        stale = [sid for sid, st in self.lfst.items() if st.seq >= from_seq]
        for sid in stale:
            del self.lfst[sid]


class OutOfOrderCore(CoreModel):
    """Table I's ``OoO`` model."""

    kind = "ooo"

    def _reset(self) -> None:
        self.iq: List[InflightInst] = []
        self.rob: Deque[InflightInst] = deque()
        self.lq: List[InflightInst] = []
        self.sq: Deque[InflightInst] = deque()   # unified SQ + SB
        self.free_int = self.cfg.prf_int - NUM_INT_ARCH
        self.free_fp = self.cfg.prf_fp - NUM_FP_ARCH
        self.store_sets = StoreSets() if self.cfg.store_sets else None
        self.nolq = self.cfg.disambiguation in ("nolq", "nolq_osca")

    def pipeline_empty(self) -> bool:
        return not self.rob and not self.sq

    def _debug_state(self) -> str:  # pragma: no cover
        return (f"rob={len(self.rob)} iq={list(self.iq)[:4]} "
                f"lq={len(self.lq)} sq={len(self.sq)} "
                f"free=({self.free_int},{self.free_fp})")

    def _occupancy(self):
        cfg = self.cfg
        occ = {
            "rob": (len(self.rob), cfg.rob_size),
            "iq": (len(self.iq), cfg.iq_size),
            "sq_sb": (len(self.sq), cfg.sq_sb_size),
            "prf_int": (cfg.prf_int - NUM_INT_ARCH - self.free_int,
                        cfg.prf_int - NUM_INT_ARCH),
            "prf_fp": (cfg.prf_fp - NUM_FP_ARCH - self.free_fp,
                       cfg.prf_fp - NUM_FP_ARCH),
        }
        if not self.nolq:
            occ["lq"] = (len(self.lq), cfg.lq_size)
        return occ

    # -- cycle-accounting hooks ----------------------------------------------

    def _commit_head(self):
        return self.rob[0] if self.rob else None

    def _stall_structure(self, head):
        return "rob" if head.issue_at is not None else "iq"

    def _step(self, cycle: int) -> None:
        self._retire_stores(cycle)
        self._commit(cycle)
        self._issue(cycle)
        self._dispatch(cycle)

    # -- store retirement (SB part of the unified SQ/SB) -----------------------

    def _retire_stores(self, cycle: int) -> None:
        if not self.sq or not self.sq[0].committed:
            return
        head = self.sq[0]
        if not self.store_fill_arrived(head, cycle):
            return
        if not self.fu.take_store_port():
            return
        self.sq.popleft()
        self.stats.add("sq_reads")
        self.stats.add("sb_retires")

    # -- commit -----------------------------------------------------------------

    def _commit(self, cycle: int) -> None:
        committed = 0
        while (self.rob and committed < self.cfg.width
               and self.rob[0].done_at is not None
               and self.rob[0].done_at <= cycle):
            entry = self.rob[0]
            inst = entry.inst
            if inst.is_load and self.nolq:
                # On-commit value-check: re-search the SB up to the oldest
                # store that was unresolved at issue time.
                if entry.unresolved_older:
                    self.stats.add("sq_searches")
                    if any(s.inst.overlaps(inst)
                           for s in entry.unresolved_older):
                        self.stats.add("mem_order_violations")
                        if self.tracer is not None:
                            self.tracer.emit("storeset_violation", cycle,
                                             entry.seq,
                                             mechanism="value_check")
                        self._squash(entry.seq, cycle)
                        return
            elif inst.is_load:
                self.lq.remove(entry)
                self.stats.add("lq_reads")
            self.rob.popleft()
            if inst.is_store:
                # Enters the SB part; the write-allocate fill starts now.
                self.start_store_fill(entry, cycle)
            if inst.dst is not None:
                self._free_reg(inst.dst)
            self.note_commit(entry, cycle)
            self.stats.counters["rob_reads"] += 1.0
            committed += 1

    def _free_reg(self, dst: int) -> None:
        if dst >= NUM_INT_ARCH:
            self.free_fp += 1
        else:
            self.free_int += 1
        self.stats.counters["freelist_ops"] += 1.0

    # -- issue (wakeup / select) -------------------------------------------------

    def _issue(self, cycle: int) -> None:
        if not self.iq:
            return
        counters = self.stats.counters
        counters["iq_select"] += 1.0
        candidates = [e for e in self.iq if e.ready(cycle)]
        candidates.sort(key=lambda e: e.seq)  # oldest-first age matrix
        issued = 0
        for entry in candidates:
            if issued >= self.cfg.width:
                break
            if entry not in self.iq:
                continue  # removed by a squash triggered earlier this cycle
            inst = entry.inst
            if inst.is_load and entry.sentinel_on is not None:
                # Store-set dependence recorded at dispatch: wait for the
                # predicted store to resolve (or vanish in a squash).
                pred = entry.sentinel_on
                if pred.issue_at is None and pred in self.sq:
                    counters["storeset_blocks"] += 1.0
                    continue
                entry.sentinel_on = None
            if not self.fu.take(inst.op):
                continue
            self.iq.remove(entry)
            self._execute(entry, cycle)
            issued += 1
            counters["issued"] += 1.0
            counters["prf_reads"] += float(len(inst.srcs))
            counters["prf_writes"] += 1.0 if inst.dst is not None else 0.0
            # Completion broadcasts the dest tag across the IQ CAM.
            counters["iq_wakeup_cam"] += float(len(self.iq))

    def _execute(self, entry: InflightInst, cycle: int) -> None:
        inst = entry.inst
        entry.issue_at = cycle
        if inst.is_load:
            self._execute_load(entry, cycle)
        elif inst.is_store:
            entry.done_at = cycle + 1
            self._store_resolved(entry, cycle)
        else:
            entry.done_at = cycle + inst.latency
        if self.tracer is not None:
            self.trace_issue(entry, cycle)
        self.resolve_branch_if_gating(entry)
        self._schedule_wakeup(entry)

    def _execute_load(self, entry: InflightInst, cycle: int) -> None:
        # Forwarding search over the unified SQ/SB.
        self.stats.add("sq_searches")
        if self.nolq:
            # On-commit value-check (Figure 9's OoO+NoLQ variant): snapshot
            # the unresolved older stores instead of entering the LQ.
            entry.unresolved_older = [
                s for s in self.sq
                if s.seq < entry.seq and s.issue_at is None]
        else:
            self.stats.add("lq_writes")
        forward = None
        for store in self.sq:
            if (store.seq < entry.seq and store.resolved
                    and store.inst.overlaps(entry.inst)):
                if forward is None or store.seq > forward.seq:
                    forward = store
        if self.nolq and forward is not None:
            entry.unresolved_older = [s for s in entry.unresolved_older
                                      if s.seq > forward.seq]
        entry.forward_store = forward
        if forward is not None:
            entry.done_at = cycle + 2
            self.stats.add("stl_forwards")
        else:
            entry.done_at = cycle + self.load_latency(entry, cycle)

    def _store_resolved(self, store: InflightInst, cycle: int) -> None:
        """A store's address resolved: search the LQ for violations."""
        if self.store_sets is not None:
            sid = self.store_sets.ssit.get(store.inst.pc)
            if sid is not None and self.store_sets.lfst.get(sid) is store:
                del self.store_sets.lfst[sid]
        if self.nolq:
            return  # violations are found by the loads at commit
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
            if self.tracer is not None:
                self.tracer.emit("storeset_violation", cycle, victim.seq,
                                 mechanism="lq_search", store=store.seq)
            if self.store_sets is not None:
                self.store_sets.on_violation(store.inst.pc, victim.inst.pc)
            self._squash(victim.seq, cycle)

    # -- squash ------------------------------------------------------------------

    def _squash(self, from_seq: int, cycle: int) -> None:
        self.iq = [e for e in self.iq if e.seq < from_seq]
        self.lq = [e for e in self.lq if e.seq < from_seq]
        while self.sq and self.sq[-1].seq >= from_seq:
            self.sq.pop()
        while self.rob and self.rob[-1].seq >= from_seq:
            entry = self.rob.pop()
            if entry.inst.dst is not None:
                self._free_reg(entry.inst.dst)  # return the allocation
        if self.store_sets is not None:
            self.store_sets.drop_squashed(from_seq)
        self.squash_from(from_seq, cycle)

    # -- dispatch (rename + allocate) ----------------------------------------------

    def _dispatch(self, cycle: int) -> None:
        dispatched = 0
        counters = self.stats.counters
        while dispatched < self.cfg.width:
            inst = self.fetch.peek_ready(cycle)
            if inst is None:
                break
            if len(self.rob) >= self.cfg.rob_size or len(self.iq) >= self.cfg.iq_size:
                self.stats.add("dispatch_stall_window")
                break
            if (inst.is_load and not self.nolq
                    and len(self.lq) >= self.cfg.lq_size):
                self.stats.add("dispatch_stall_lq")
                break
            if inst.is_store and len(self.sq) >= self.cfg.sq_sb_size:
                self.stats.add("dispatch_stall_sq")
                break
            if inst.dst is not None and not self._alloc_reg(inst.dst):
                self.stats.add("dispatch_stall_prf")
                break
            self.fetch.pop_ready(cycle, 1)
            entry = self.make_entry(inst)
            entry.fresh_phys = inst.dst is not None
            counters["rat_reads"] += float(len(inst.srcs))
            if inst.dst is not None:
                counters["rat_writes"] += 1.0
            self.iq.append(entry)
            self.rob.append(entry)
            counters["rob_writes"] += 1.0
            counters["iq_writes"] += 1.0
            if inst.is_load and not self.nolq:
                self.lq.append(entry)
            if inst.is_load and self.store_sets is not None:
                entry.sentinel_on = self.store_sets.predicted_store(entry)
            if inst.is_store:
                self.sq.append(entry)
                self.stats.add("sq_writes")
                if self.store_sets is not None:
                    self.store_sets.store_dispatched(entry)
            dispatched += 1
            counters["dispatched"] += 1.0

    def _alloc_reg(self, dst: int) -> bool:
        if dst >= NUM_INT_ARCH:
            if self.free_fp <= 0:
                return False
            self.free_fp -= 1
        else:
            if self.free_int <= 0:
                return False
            self.free_int -= 1
        self.stats.counters["freelist_ops"] += 1.0
        return True

    def _can_alloc(self, dst: int) -> bool:
        """Read-only twin of ``_alloc_reg`` for the fast-forward check."""
        return (self.free_fp if dst >= NUM_INT_ARCH else self.free_int) > 0

    # -- event-driven fast forward --------------------------------------------

    def _next_event_cycle(self, cycle: int):
        cand = []
        # Fetch first: it is the usual reason a stepped cycle is busy (every
        # check is read-only, so the order is free).
        if not self._fetch_quiescent(cycle, cand):
            return None
        rates = {}
        cfg = self.cfg
        if self.sq and self.sq[0].committed:
            head = self.sq[0]
            if head.fill_ready is not None and head.fill_ready > cycle:
                cand.append(head.fill_ready)
            else:
                return None  # SB head retires
        if self.rob:
            head = self.rob[0]
            if head.done_at is not None and head.done_at <= cycle:
                return None  # commits (or value-check squashes) this cycle
        if self.iq:
            rates["iq_select"] = 1
            blocks = 0
            for entry in self.iq:
                if not entry.ready(cycle):
                    continue
                inst = entry.inst
                if inst.is_load and entry.sentinel_on is not None:
                    pred = entry.sentinel_on
                    if pred.issue_at is None and pred in self.sq:
                        blocks += 1
                        continue
                    return None  # clearing the stale sentinel mutates state
                if not self.fu.zero_capacity(inst.op):
                    return None  # a ready candidate would issue
            if blocks:
                rates["storeset_blocks"] = blocks
        queue = self.fetch.queue
        if queue:
            ready_at, inst = queue[0]
            if ready_at > cycle:
                cand.append(ready_at)
            else:
                if (len(self.rob) >= cfg.rob_size
                        or len(self.iq) >= cfg.iq_size):
                    rates["dispatch_stall_window"] = 1
                elif (inst.is_load and not self.nolq
                        and len(self.lq) >= cfg.lq_size):
                    rates["dispatch_stall_lq"] = 1
                elif inst.is_store and len(self.sq) >= cfg.sq_sb_size:
                    rates["dispatch_stall_sq"] = 1
                elif inst.dst is not None and not self._can_alloc(inst.dst):
                    rates["dispatch_stall_prf"] = 1
                else:
                    return None  # head would dispatch
        return self._finish_hint(cand, rates)
