"""Load Slice Core (Carlson et al., ISCA 2015) — Section VI-A2 baseline.

Backward address-generating slices are learned iteratively at runtime in an
Instruction Slice Table (IST): when a memory operation dispatches, the
static producers of its address register are marked; when a marked
instruction dispatches, its own producers are marked, so slices grow one
level per loop iteration.  Memory operations and slice members dispatch to a
bypass queue (B-IQ) and issue in program order but independently of the main
queue (A-IQ).  There is no register renaming: cross-queue WAR/WAW hazards
are enforced by stalling, and since all address generation is in order,
memory-order violations cannot occur.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.engine.core_base import CoreModel, InflightInst


class InstructionSliceTable:
    """PC-indexed set of instructions known to lead to an address."""

    def __init__(self, capacity: int = 128) -> None:
        self.capacity = capacity
        self.pcs: Dict[int, int] = {}  # pc -> insertion stamp (FIFO evict)
        self._stamp = 0

    def __contains__(self, pc: int) -> bool:
        return pc in self.pcs

    def add(self, pc: int) -> None:
        if pc in self.pcs:
            return
        if len(self.pcs) >= self.capacity:
            victim = min(self.pcs, key=self.pcs.get)
            del self.pcs[victim]
        self._stamp += 1
        self.pcs[pc] = self._stamp


class LoadSliceCore(CoreModel):
    """The LSC model used in Figure 6."""

    kind = "lsc"

    def _reset(self) -> None:
        self.ist = InstructionSliceTable(self.cfg.ist_entries)
        self.biq: Deque[InflightInst] = deque()
        self.aiq: Deque[InflightInst] = deque()
        self.rob: Deque[InflightInst] = deque()
        self.sb: Deque[InflightInst] = deque()
        # Static producer tracking for IST learning (architectural).
        self.reg_writer_pc: Dict[int, int] = {}

    def pipeline_empty(self) -> bool:
        return not self.rob and not self.sb

    def _debug_state(self) -> str:  # pragma: no cover
        return (f"biq={list(self.biq)[:3]} aiq={list(self.aiq)[:3]} "
                f"rob={len(self.rob)} sb={len(self.sb)}")

    def _occupancy(self):
        return {"biq": (len(self.biq), self.cfg.biq_size),
                "aiq": (len(self.aiq), self.cfg.aiq_size),
                "rob": (len(self.rob), self.cfg.rob_size),
                "sb": (len(self.sb), self.cfg.sq_sb_size)}

    # -- cycle-accounting hooks ----------------------------------------------

    def _commit_head(self):
        return self.rob[0] if self.rob else None

    def _stall_structure(self, head):
        if head.issue_at is not None:
            return "rob"
        return {"A": "aiq", "B": "biq"}.get(head.queue_tag, "rob")

    def _issue_gate(self):
        """Oldest unissued instruction across the in-order queue heads."""
        heads = [q[0] for q in self._accounting_queues() if q]
        return min(heads, key=lambda e: e.seq) if heads else None

    def _accounting_queues(self):
        return (self.biq, self.aiq)

    def _step(self, cycle: int) -> None:
        self._retire_stores(cycle)
        self._commit(cycle)
        self._issue(cycle)
        self._dispatch(cycle)

    # -- store buffer --------------------------------------------------------------

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
        while (self.rob and committed < self.cfg.width
               and self.rob[0].done_at is not None
               and self.rob[0].done_at <= cycle):
            entry = self.rob[0]
            if entry.inst.is_store:
                if len(self.sb) >= self.cfg.sq_sb_size:
                    break
                self.sb.append(entry)
                self.start_store_fill(entry, cycle)
            self.rob.popleft()
            self.note_commit(entry, cycle)
            committed += 1

    # -- issue ------------------------------------------------------------------------

    def _issue(self, cycle: int) -> None:
        budget = self.cfg.width
        budget = self._issue_queue(self.biq, cycle, budget, "b")
        self._issue_queue(self.aiq, cycle, budget, "a")

    def _issue_queue(self, queue: Deque[InflightInst], cycle: int,
                     budget: int, tag: str) -> int:
        while budget > 0 and queue:
            entry = queue[0]
            if not entry.ready(cycle):
                break
            if self._hazard(entry):
                self.stats.add("hazard_stalls")
                break
            if not self.fu.take(entry.inst.op):
                break
            queue.popleft()
            self._execute(entry, cycle)
            self.stats.add(f"issued_{tag}iq")
            budget -= 1
        return budget

    def _hazard(self, entry: InflightInst) -> bool:
        """Without renaming, a WAW/WAR hazard with an older *unissued*
        instruction in the other queue(s) blocks issue."""
        dst = entry.inst.dst
        if dst is None:
            return False
        for other in self.rob:
            if other.seq >= entry.seq:
                break
            if other.issue_at is None and other is not entry:
                if other.inst.dst == dst or dst in other.inst.srcs:
                    return True
        return False

    def _execute(self, entry: InflightInst, cycle: int) -> None:
        inst = entry.inst
        entry.issue_at = cycle
        self.stats.add("issued")
        if inst.is_load:
            forward = self._forwarding_store(entry)
            entry.forward_store = forward
            if forward is not None:
                entry.done_at = cycle + 2
                self.stats.add("stl_forwards")
            else:
                entry.done_at = cycle + self.load_latency(entry, cycle)
        elif inst.is_store:
            entry.done_at = cycle + 1
        else:
            entry.done_at = cycle + inst.latency
        if self.tracer is not None:
            self.trace_issue(entry, cycle, queue=entry.queue_tag)
        self.resolve_branch_if_gating(entry)
        self._schedule_wakeup(entry)

    def _forwarding_store(self, load: InflightInst) -> Optional[InflightInst]:
        """Older stores are all resolved (in-order AGIs in the B-IQ)."""
        best = None
        for store in self.rob:
            if store.seq >= load.seq:
                break
            if (store.inst.is_store and store.issue_at is not None
                    and store.inst.overlaps(load.inst)):
                if best is None or store.seq > best.seq:
                    best = store
        for store in self.sb:
            if store.inst.overlaps(load.inst):
                if best is None or store.seq > best.seq:
                    best = store
        return best

    # -- dispatch + IST learning ---------------------------------------------------------

    def _dispatch(self, cycle: int) -> None:
        dispatched = 0
        while dispatched < self.cfg.width:
            inst = self.fetch.peek_ready(cycle)
            if inst is None or len(self.rob) >= self.cfg.rob_size:
                break
            to_b = self._steer_to_b(inst)
            queue, cap = ((self.biq, self.cfg.biq_size) if to_b
                          else (self.aiq, self.cfg.aiq_size))
            if len(queue) >= cap:
                break
            self.fetch.pop_ready(cycle, 1)
            self._learn(inst)
            entry = self.make_entry(inst)
            entry.queue_tag = "B" if to_b else "A"
            queue.append(entry)
            self.rob.append(entry)
            if inst.dst is not None:
                self.reg_writer_pc[inst.dst] = inst.pc
            dispatched += 1
            self.stats.add("dispatched")

    def _steer_to_b(self, inst) -> bool:
        return inst.is_mem or inst.pc in self.ist

    def _steer_target(self, inst):
        """Read-only steering decision: (queue, capacity) for ``inst``."""
        if self._steer_to_b(inst):
            return self.biq, self.cfg.biq_size
        return self.aiq, self.cfg.aiq_size

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
        if self.rob:
            head = self.rob[0]
            if head.done_at is not None and head.done_at <= cycle:
                if not (head.inst.is_store
                        and len(self.sb) >= cfg.sq_sb_size):
                    return None  # head would commit
                # full SB blocks commit silently (no counter)
        for queue in self._accounting_queues():
            if not queue:
                continue
            head = queue[0]
            if not head.ready(cycle):
                continue  # completion is on the wakeup calendar
            if self._hazard(head):
                rates["hazard_stalls"] = rates.get("hazard_stalls", 0) + 1
                continue
            if not self.fu.zero_capacity(head.inst.op):
                return None  # head would issue
        queue = self.fetch.queue
        if queue:
            ready_at, finst = queue[0]
            if ready_at > cycle:
                cand.append(ready_at)
            elif len(self.rob) < cfg.rob_size:
                target, cap = self._steer_target(finst)
                if len(target) < cap:
                    return None  # head would dispatch
        return self._finish_hint(cand, rates)

    def _learn(self, inst) -> None:
        """Iterative backward dependence analysis (one level per pass)."""
        if inst.is_mem:
            # Mark the producers of the address operand(s).
            base = inst.srcs[0] if inst.srcs else None
            if base is not None and base in self.reg_writer_pc:
                self.ist.add(self.reg_writer_pc[base])
        elif inst.pc in self.ist:
            for src in inst.srcs:
                if src in self.reg_writer_pc:
                    self.ist.add(self.reg_writer_pc[src])
