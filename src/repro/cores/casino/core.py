"""The CASINO core pipeline (Section III).

A cascade of in-order scheduling windows: dispatch fills the first
(speculative) S-IQ; each cycle the SpecInO window examines the S-IQ head —
ready instructions issue immediately (allocating a fresh physical register),
non-ready instructions are passed to the next queue (keeping their current
mapping); the final IQ issues strictly in program order along the serial
dependence chains.  Arbitration gives the IQ priority (its instructions are
always the oldest).  Wider designs (Section VI-F) insert intermediate
8-entry S-IQs between the first S-IQ and the IQ.

Because both issue and pass remove the *head* of a FIFO (nothing may leave
while an older instruction stays, or ROB allocation order would break), the
SpecInO[WS, SO] window reduces to processing the queue head up to WS times
per cycle with at most SO passes — exactly the behaviour of Figure 1d.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.common.params import (
    DISAMBIG_AGI_ORDERING,
    DISAMBIG_FULLY_OOO,
    NUM_FP_ARCH,
    NUM_INT_ARCH,
    RENAME_CONDITIONAL,
)
from repro.cores.casino.lsu import CasinoLsu
from repro.cores.casino.rename import ConditionalRenamer
from repro.engine.core_base import CoreModel, InflightInst


class CasinoCore(CoreModel):
    """Table I's ``CASINO`` model (and its Figure 7/8/10/11 variants)."""

    kind = "casino"

    def _reset(self) -> None:
        cfg = self.cfg
        sizes = ([cfg.siq_size]
                 + [cfg.intermediate_siq_size] * cfg.n_intermediate_siqs
                 + [cfg.iq_size])
        self.queues: List[Deque[InflightInst]] = [deque() for _ in sizes]
        self.queue_sizes = sizes
        self.rob: Deque[InflightInst] = deque()
        self.renamer = ConditionalRenamer(cfg, self.stats)
        self.lsu = CasinoLsu(cfg, self.hier, self.stats)
        self.dbuf_used = 0
        self._use_dbuf = cfg.rename_scheme == RENAME_CONDITIONAL
        self._agi_ordering = cfg.disambiguation == DISAMBIG_AGI_ORDERING
        self._n_siqs = len(sizes) - 1

    def pipeline_empty(self) -> bool:
        return (not self.rob and self.lsu.empty
                and all(not q for q in self.queues))

    def _debug_state(self) -> str:  # pragma: no cover
        return (f"queues={[list(q)[:3] for q in self.queues]} "
                f"rob={len(self.rob)} sq={len(self.lsu.sq)} "
                f"free=({self.renamer.free_int},{self.renamer.free_fp}) "
                f"dbuf={self.dbuf_used}")

    def _occupancy(self):
        cfg = self.cfg
        occ = {}
        for i, (queue, cap) in enumerate(zip(self.queues, self.queue_sizes)):
            name = "iq" if i == len(self.queues) - 1 else f"siq{i}"
            occ[name] = (len(queue), cap)
        occ["rob"] = (len(self.rob), cfg.rob_size)
        occ["sq_sb"] = (len(self.lsu.sq), cfg.sq_sb_size)
        occ["dbuf"] = (self.dbuf_used, cfg.data_buffer_size)
        renamer = self.renamer
        occ["prf_int"] = (cfg.prf_int - NUM_INT_ARCH - renamer.free_int,
                          cfg.prf_int - NUM_INT_ARCH)
        occ["prf_fp"] = (cfg.prf_fp - NUM_FP_ARCH - renamer.free_fp,
                         cfg.prf_fp - NUM_FP_ARCH)
        if self.lsu.mode == DISAMBIG_FULLY_OOO:
            occ["lq"] = (len(self.lsu.lq), cfg.lq_size)
        return occ

    # -- cycle-accounting hooks ----------------------------------------------

    def _commit_head(self):
        """Oldest uncommitted instruction: the ROB head, or — before
        anything has been renamed into the ROB — the first S-IQ head."""
        if self.rob:
            return self.rob[0]
        if self.queues[0]:
            return self.queues[0][0]
        return None

    def _stall_structure(self, head):
        """Which cascade queue holds the head (``siq0``..``iq``), or
        ``rob`` once it has issued and is only awaiting completion."""
        if head.issue_at is not None:
            return "rob"
        # An unissued oldest instruction is necessarily at the head of
        # whichever cascade queue holds it (queues are seq-ordered).
        last = len(self.queues) - 1
        for i, queue in enumerate(self.queues):
            if queue and head is queue[0]:
                return "iq" if i == last else f"siq{i}"
        return "rob"

    def _issue_gate(self):
        """Oldest unissued instruction: non-ready heads are passed
        *downstream*, so it sits at the head of the most-downstream
        non-empty queue (the IQ, once anything has reached it)."""
        for queue in reversed(self.queues):
            if queue:
                return queue[0]
        return None

    # -- cycle ----------------------------------------------------------------

    def _step(self, cycle: int) -> None:
        # Guards mirror each stage's own early-out so stalled cycles skip
        # the call entirely; the stages stay correct when called directly.
        lsu = self.lsu
        sq = lsu.sq
        if sq and sq[0].committed:
            lsu.retire_head(cycle, self.fu)
        rob = self.rob
        if rob:
            done = rob[0].done_at
            if done is not None and done <= cycle:
                self._commit(cycle)
        budget = self.cfg.width
        queues = self.queues
        if queues[-1]:
            budget -= self._issue_iq(cycle, budget)
        if queues[0] or self._n_siqs > 1:
            self._scan_siqs(cycle, budget)
        fq = self.fetch.queue
        if fq and fq[0][0] <= cycle:
            self._dispatch(cycle)

    # -- commit -----------------------------------------------------------------

    def _commit(self, cycle: int) -> None:
        rob = self.rob
        if not rob:
            return
        head_done = rob[0].done_at
        if head_done is None or head_done > cycle:
            return
        committed = 0
        counters = self.stats.counters
        width = self.cfg.width
        lsu = self.lsu
        renamer_commit = self.renamer.commit
        note_commit = self.note_commit
        while committed < width:
            entry = rob[0]
            inst = entry.inst
            if inst.is_load and lsu.commit_load(entry, cycle):
                # On-commit value-check failed: flush this load and all
                # younger instructions, then re-execute.
                if self.tracer is not None:
                    self.tracer.emit("storeset_violation", cycle, entry.seq,
                                     mechanism="value_check")
                self._squash(entry.seq, cycle)
                return
            rob.popleft()
            if inst.is_store:
                lsu.commit_store(entry, cycle)
            if entry.fresh_phys:
                renamer_commit(entry)
            if entry.queue_tag == "dbuf":
                self.dbuf_used -= 1
                counters["dbuf_access"] += 1.0
            counters["rob_reads"] += 1.0
            note_commit(entry, cycle)
            counters["committed_s_issue" if entry.from_siq
                     else "committed_iq_issue"] += 1.0
            committed += 1
            if not rob:
                return
            done = rob[0].done_at
            if done is None or done > cycle:
                return

    # -- issue from the final in-order IQ ------------------------------------------

    def _issue_iq(self, cycle: int, budget: int) -> int:
        """Strict in-order issue at the IQ head; returns slots used."""
        iq = self.queues[-1]
        issued = 0
        counters = self.stats.counters
        fu_take = self.fu.take
        use_dbuf = self._use_dbuf
        while iq and issued < budget:
            entry = iq[0]
            if entry.n_pending and not entry.ready(cycle):
                counters["iq_stall_src"] += 1.0
                break
            inst = entry.inst
            needs_dbuf = use_dbuf and inst.dst is not None
            if needs_dbuf and self.dbuf_used >= self.cfg.data_buffer_size:
                counters["iq_stall_dbuf"] += 1.0
                break
            if not fu_take(inst.op):
                counters["iq_stall_fu"] += 1.0
                break
            iq.popleft()
            if needs_dbuf:
                self.dbuf_used += 1
                entry.queue_tag = "dbuf"
                counters["dbuf_access"] += 1.0
            if inst.dst is not None and not entry.fresh_phys:
                self.renamer.on_iq_issue(entry)
            self._execute(entry, cycle, True)
            issued += 1
        return issued

    # -- SpecInO window scan over the cascaded S-IQs ---------------------------------

    def _scan_siqs(self, cycle: int, budget: int) -> None:
        """Process each S-IQ head with the [WS, SO] window, oldest queue
        (closest to the IQ) first.  Each queue examines its head up to WS
        times: a ready head issues while issue slots last, a non-ready one
        passes to the next queue (at most SO times).  Leaving the first
        S-IQ renames the instruction and allocates its ROB (and SQ)
        entry."""
        queues = self.queues
        cfg = self.cfg
        ws = cfg.specino_ws
        so = cfg.specino_so
        rob_size = cfg.rob_size
        rob = self.rob
        renamer = self.renamer
        lsu = self.lsu
        fu = self.fu
        counters = self.stats.counters
        execute = self._execute
        for qi in range(self._n_siqs - 1, -1, -1):
            queue = queues[qi]
            if not queue:
                continue
            first = qi == 0
            next_queue = queues[qi + 1]
            next_cap = self.queue_sizes[qi + 1]
            processed = 0
            passes = 0
            while queue and processed < ws:
                entry = queue[0]
                inst = entry.inst
                if first:
                    counters["siq_examined"] += 1.0
                if not entry.n_pending or entry.ready(cycle):
                    if budget <= 0:
                        break  # ready but out of issue slots: wait, don't pass
                    # Ready but resource-blocked: waiting at the head beats
                    # passing (footnote 1 of the paper).
                    if first:
                        if len(rob) >= rob_size:
                            break
                        if not renamer.can_alloc(inst.dst):
                            counters["issue_stall_prf"] += 1.0
                            break
                        if inst.is_store and not lsu.has_store_space():
                            break
                        if inst.is_load and not lsu.has_load_space():
                            break
                    if (inst.is_mem and self._agi_ordering
                            and self._older_unissued_mem(entry.seq)):
                        counters["agi_order_stalls"] += 1.0
                        break
                    if not fu.take(inst.op):
                        break
                    queue.popleft()
                    if first:
                        renamer.rename_speculative(entry)
                        rob.append(entry)
                        counters["rob_writes"] += 1.0
                        if inst.is_store:
                            lsu.dispatch_store(entry)
                    execute(entry, cycle, False)
                    budget -= 1
                    processed += 1
                    continue
                # Not ready: try to pass it to the next queue.
                if passes >= so or len(next_queue) >= next_cap:
                    break
                if first:
                    if len(rob) >= rob_size:
                        break
                    if not renamer.can_pass(inst.dst):
                        counters["pass_stall_rename"] += 1.0
                        break
                    if inst.is_store and not lsu.has_store_space():
                        break
                queue.popleft()
                if first:
                    renamer.rename_passed(entry)
                    rob.append(entry)
                    counters["rob_writes"] += 1.0
                    if inst.is_store:
                        lsu.dispatch_store(entry)
                next_queue.append(entry)
                if self.tracer is not None:
                    self.tracer.emit("siq_promote", cycle, entry.seq,
                                     from_queue=qi, to_queue=qi + 1)
                counters["siq_passes"] += 1.0
                passes += 1
                processed += 1

    def _older_unissued_mem(self, seq: int) -> bool:
        for other in self.rob:
            if other.seq >= seq:
                break
            if other.inst.is_mem and other.issue_at is None:
                return True
        return False

    # -- execution ---------------------------------------------------------------

    def _execute(self, entry: InflightInst, cycle: int, from_iq: bool) -> None:
        inst = entry.inst
        entry.issue_at = cycle
        counters = self.stats.counters
        is_mem = inst.is_mem
        if from_iq:
            counters["issued_iq"] += 1.0
            counters["issued_iq_mem" if is_mem else "issued_iq_nonmem"] += 1.0
        else:
            entry.from_siq = True
            counters["issued_spec"] += 1.0
            counters["issued_spec_mem" if is_mem
                     else "issued_spec_nonmem"] += 1.0
        counters["issued"] += 1.0
        counters["prf_reads"] += float(len(inst.srcs))
        if inst.dst is not None:
            counters["prf_writes"] += 1.0
        if not is_mem:
            entry.done_at = cycle + inst.latency
            if inst.is_branch:
                self.resolve_branch_if_gating(entry)
        elif inst.is_load:
            forward = self.lsu.load_issued(entry, cycle, from_iq)
            entry.forward_store = forward
            if forward is not None:
                entry.done_at = cycle + 2
                counters["stl_forwards"] += 1.0
            else:
                entry.done_at = cycle + self.load_latency(entry, cycle)
        else:
            entry.done_at = cycle + 1
            lsu = self.lsu
            lsu.store_issued(entry, cycle)
            if lsu.violation_seq is not None:
                victim = lsu.violation_seq
                lsu.violation_seq = None
                if self.tracer is not None:
                    self.tracer.emit("storeset_violation", cycle, victim,
                                     mechanism="lq_search", store=entry.seq)
                self._squash(victim, cycle)
        if self.tracer is not None:
            self.trace_issue(entry, cycle, from_iq=from_iq)
        self._schedule_wakeup(entry)

    # -- event-driven fast forward --------------------------------------------

    def _next_event_cycle(self, cycle: int):
        # Cheapest and most frequent dense-cycle trigger first, before any
        # allocation: the ROB head committing (all checks are read-only, so
        # evaluation order does not matter for correctness).
        if self.rob:
            head = self.rob[0]
            if head.done_at is not None and head.done_at <= cycle:
                return None  # commits (or value-check squashes) this cycle
        # Then the frontend, the other usual reason a stepped cycle is busy.
        cand = []
        if not self._dispatch_quiescent(
                cycle, cand, self.queue_sizes[0] - len(self.queues[0])):
            return None
        if not self._fetch_quiescent(cycle, cand):
            return None
        rates = {}
        cfg = self.cfg
        sq = self.lsu.sq
        if (sq and sq[0].committed
                and not self.lsu.retire_quiescent(cycle, rates, cand)):
            return None  # SB head retires
        iq = self.queues[-1]
        if iq:
            head = iq[0]
            if not head.ready(cycle):
                rates["iq_stall_src"] = 1
            elif (self._use_dbuf and head.inst.dst is not None
                    and self.dbuf_used >= cfg.data_buffer_size):
                rates["iq_stall_dbuf"] = 1
            elif not self.fu.zero_capacity(head.inst.op):
                return None  # IQ head would issue
            else:
                rates["iq_stall_fu"] = 1
        for qi in range(self._n_siqs - 1, -1, -1):
            if not self._siq_quiescent(qi, cycle, rates):
                return None
        return self._finish_hint(cand, rates)

    def _siq_quiescent(self, qi: int, cycle: int, rates) -> bool:
        """True when this S-IQ's head scan is provably a no-op at
        ``cycle`` (one head examination, no issue, no pass) — mirroring
        the exact break order and counters of ``_scan_siqs``."""
        queue = self.queues[qi]
        if not queue:
            return True
        first = qi == 0
        entry = queue[0]
        if first:
            rates["siq_examined"] = 1
        if entry.ready(cycle):
            return self._spec_issue_blocked(entry, first, rates)
        if self.cfg.specino_so < 1:
            return True
        if len(self.queues[qi + 1]) >= self.queue_sizes[qi + 1]:
            return True
        if first:
            return self._pass_blocked(entry, rates)
        return False  # the non-ready head would pass downstream

    def _spec_issue_blocked(self, entry: InflightInst, first: bool,
                            rates) -> bool:
        """Read-only twin of ``_scan_siqs``' issue checks (same counter
        effects): True when the ready head cannot issue this cycle."""
        inst = entry.inst
        if first:
            if len(self.rob) >= self.cfg.rob_size:
                return True
            if not self.renamer.can_alloc(inst.dst):
                rates["issue_stall_prf"] = rates.get("issue_stall_prf", 0) + 1
                return True
            if inst.is_store and not self.lsu.has_store_space():
                return True
            if inst.is_load and not self.lsu.has_load_space():
                return True
        if inst.is_mem and self._agi_ordering:
            if self._older_unissued_mem(entry.seq):
                rates["agi_order_stalls"] = (
                    rates.get("agi_order_stalls", 0) + 1)
                return True
        return self.fu.zero_capacity(inst.op)

    def _pass_blocked(self, entry: InflightInst, rates) -> bool:
        """Read-only twin of ``_scan_siqs``' first-S-IQ pass checks (same
        counter effects): True when the non-ready first-S-IQ head cannot
        pass downstream."""
        inst = entry.inst
        if len(self.rob) >= self.cfg.rob_size:
            return True
        if not self.renamer.can_pass(inst.dst):
            rates["pass_stall_rename"] = rates.get("pass_stall_rename", 0) + 1
            return True
        if inst.is_store and not self.lsu.has_store_space():
            return True
        return False

    # -- dispatch ------------------------------------------------------------------

    def _dispatch(self, cycle: int) -> None:
        fq = self.fetch.queue
        if not fq or fq[0][0] > cycle:
            return
        first = self.queues[0]
        space = self.queue_sizes[0] - len(first)
        width = self.cfg.width
        insts = self.fetch.pop_ready(cycle, space if space < width else width)
        if insts:
            make_entry = self.make_entry
            for inst in insts:
                first.append(make_entry(inst))
            self.stats.counters["dispatched"] += float(len(insts))

    # -- squash ---------------------------------------------------------------------

    def _squash(self, from_seq: int, cycle: int) -> None:
        """Flush ``from_seq`` and younger; recover RAT/ProducerCount/OSCA."""
        # Walk the ROB young -> old, undoing rename state.
        squashed = []
        while self.rob and self.rob[-1].seq >= from_seq:
            entry = self.rob.pop()
            squashed.append(entry)
            if entry.queue_tag == "dbuf":
                self.dbuf_used -= 1
        self.renamer.squash(squashed)
        for queue in self.queues:
            while queue and queue[-1].seq >= from_seq:
                queue.pop()
        self.lsu.squash(from_seq)
        self.squash_from(from_seq, cycle)
