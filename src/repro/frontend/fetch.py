"""Fetch unit with branch-prediction gating and I-cache timing.

Wrong-path execution is modelled as fetch starvation: on a mispredicted
branch the fetch unit stops supplying instructions until the core reports
the branch resolved, then pays the redirect penalty.  This is the standard
trace-driven approximation — correct-path timing is exact, wrong-path cache
pollution is not modelled (uniformly for every core, so relative results are
unaffected).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.common.params import BranchPredictorConfig, CoreConfig
from repro.common.stats import Stats
from repro.engine.stream import InstStream
from repro.frontend.btb import Btb
from repro.frontend.tage import Tage
from repro.isa.instruction import DynInst
from repro.isa.opcodes import OpClass


class FetchUnit:
    """Supplies up to ``width`` instructions per cycle to the dispatcher."""

    def __init__(self, cfg: CoreConfig, stream: InstStream, hierarchy,
                 bp_cfg: Optional[BranchPredictorConfig] = None,
                 stats: Optional[Stats] = None) -> None:
        self.cfg = cfg
        self.stream = stream
        self.hierarchy = hierarchy
        self.stats = stats if stats is not None else Stats()
        bp_cfg = bp_cfg if bp_cfg is not None else BranchPredictorConfig()
        self.tage = Tage(bp_cfg, self.stats)
        self.btb = Btb(bp_cfg.btb_sets, bp_cfg.btb_ways, self.stats)
        #: The decode pipe: ``(ready_at, inst)`` pairs in program order,
        #: ``ready_at`` being the cycle the instruction may dispatch.
        self.queue: Deque[Tuple[int, DynInst]] = deque()
        self.capacity = max(2, cfg.frontend_latency) * cfg.width * 2
        self.stalled_until = 0
        self.blocked_seq: Optional[int] = None  # unresolved mispredicted branch
        self._line = -1

    # -- per-cycle fetch -------------------------------------------------------

    def tick(self, cycle: int) -> None:
        """Fetch up to ``width`` instructions this cycle."""
        if self.blocked_seq is not None or cycle < self.stalled_until:
            return
        queue = self.queue
        room = self.capacity - len(queue)
        if room <= 0:
            return  # decode pipe backed up: nothing can be fetched
        # The stream's cursor is advanced locally and written back once.
        stream = self.stream
        trace = stream.trace
        cursor = stream.cursor
        width = self.cfg.width
        end = cursor + (room if room < width else width)
        if end > len(trace):
            end = len(trace)
        ready_at = cycle + self.cfg.frontend_latency
        start = cursor
        while cursor < end:
            inst = trace[cursor]
            if inst.line != self._line:
                extra = self._icache(inst, cycle)
                if extra > 0:
                    # I-cache miss: this instruction (and everything
                    # behind it) arrives after the fill.
                    self.stalled_until = cycle + extra
                    break
            cursor += 1
            queue.append((ready_at, inst))
            # A mispredicted branch gates fetch until resolution; a
            # correctly-predicted taken branch ends the group.
            if inst.is_branch and (self._predict(inst) or inst.taken):
                break
        if cursor != start:
            stream.cursor = cursor
            self.stats.counters["fetched"] += float(cursor - start)

    def _icache(self, inst: DynInst, cycle: int) -> int:
        """Access the L1I for the new line ``inst`` crosses into; returns
        extra stall cycles beyond the pipelined hit latency."""
        self._line = inst.line
        latency = self.hierarchy.ifetch(inst.pc, cycle)
        hit = self.hierarchy.l1i.cfg.latency
        return max(0, latency - hit)

    def _predict(self, inst: DynInst) -> bool:
        """Predict the branch; returns True when mispredicted (fetch gates)."""
        if inst.op is OpClass.BRANCH:
            pred_taken = self.tage.predict_update(inst.pc, inst.taken)
        else:  # unconditional jump
            pred_taken = True
        target_ok = True
        if inst.taken:
            predicted_target = self.btb.lookup_update(inst.pc, inst.target)
            target_ok = predicted_target == inst.target
        mispredicted = (pred_taken != inst.taken) or (inst.taken and not target_ok)
        if mispredicted:
            self.stats.add("fetch_mispredict_gates")
            self.blocked_seq = inst.seq
        return mispredicted

    # -- supply to dispatch ------------------------------------------------------

    def pop_ready(self, cycle: int, max_count: int) -> List[DynInst]:
        """Instructions whose decode pipe delay has elapsed, in order."""
        out: List[DynInst] = []
        queue = self.queue
        while queue and queue[0][0] <= cycle and max_count > 0:
            out.append(queue.popleft()[1])
            max_count -= 1
        return out

    def peek_ready(self, cycle: int) -> Optional[DynInst]:
        if self.queue and self.queue[0][0] <= cycle:
            return self.queue[0][1]
        return None

    # -- control ----------------------------------------------------------------

    def resolve_branch(self, seq: int, done_cycle: int) -> None:
        """The core resolved the mispredicted branch ``seq``: resume fetch
        after the redirect penalty."""
        if self.blocked_seq == seq:
            self.blocked_seq = None
            self.stalled_until = max(self.stalled_until,
                                     done_cycle + self.cfg.mispredict_penalty)
            self.stats.add("branch_redirects")

    def squash(self, from_seq: int, resume_cycle: int) -> None:
        """Memory-order-violation squash: drop everything at/after
        ``from_seq`` and re-fetch it starting at ``resume_cycle``."""
        while self.queue and self.queue[-1][1].seq >= from_seq:
            self.queue.pop()
        self.stream.rewind(from_seq)
        if self.blocked_seq is not None and self.blocked_seq >= from_seq:
            self.blocked_seq = None
        self.stalled_until = max(self.stalled_until, resume_cycle)
        self._line = -1

    @property
    def drained(self) -> bool:
        """True when no fetched-but-undispatched work remains."""
        return not self.queue and self.stream.exhausted
