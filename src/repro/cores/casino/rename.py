"""Conditional register renaming (Sections III-B2, III-C2, IV-1).

Free physical registers are allocated *only* to instructions issued
speculatively from the S-IQ.  An instruction passed to the in-order IQ keeps
the current mapping of its destination register; since IQ instructions issue
strictly in program order, multiple pending writers can safely share one
physical register.  The sharing degree is bounded by a 2-bit ProducerCount
per physical register (at most three pending IQ writers).

The renamer also supports the conventional scheme (allocate on every
destination) for the Figure 7 comparison and for the wider cascaded designs
of Section VI-F, where renaming happens once at the head of the first S-IQ.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.common.params import (
    CoreConfig,
    NUM_FP_ARCH,
    NUM_INT_ARCH,
    RENAME_CONDITIONAL,
)
from repro.common.stats import Stats
from repro.engine.core_base import InflightInst


class ConditionalRenamer:
    """RAT + free lists + ProducerCount + recovery log (counting model).

    Physical registers are virtual integer ids; the free lists are counters
    sized by Table I (e.g. 32 INT / 14 FP for CASINO => 16 / 6 spare).  The
    recovery log is implicit: each speculatively-renamed instruction records
    its previous mapping, and squash recovery walks young-to-old.
    """

    def __init__(self, cfg: CoreConfig, stats: Optional[Stats] = None) -> None:
        self.cfg = cfg
        self.stats = stats if stats is not None else Stats()
        self.conditional = cfg.rename_scheme == RENAME_CONDITIONAL
        self.free_int = cfg.prf_int - NUM_INT_ARCH
        self.free_fp = cfg.prf_fp - NUM_FP_ARCH
        if self.free_int < 0 or self.free_fp < 0:
            raise ValueError("PRF smaller than the architectural file")
        # RAT: architectural -> physical id.  Ids < 1000 are the initial
        # architectural homes; allocations start at 1000.
        self.rat: Dict[int, int] = {r: r for r in range(NUM_INT_ARCH + NUM_FP_ARCH)}
        self.pending: Dict[int, int] = {}   # phys id -> ProducerCount
        self._next_phys = 1000

    # -- queries ---------------------------------------------------------------

    def can_alloc(self, dst: Optional[int]) -> bool:
        """Is a free physical register of the right class available?"""
        if dst is None:
            return True
        # Flat register ids number the FP file after the integer one.
        return (self.free_fp if dst >= NUM_INT_ARCH else self.free_int) > 0

    def can_pass(self, dst: Optional[int]) -> bool:
        """May an instruction writing ``dst`` be passed to the IQ?

        Conditional scheme: bounded by ProducerCount.  Conventional scheme:
        passing also allocates, so it needs a free register.
        """
        if dst is None:
            return True
        if not self.conditional:
            return self.can_alloc(dst)
        phys = self.rat[dst]
        return self.pending.get(phys, 0) < self.cfg.producer_count_max

    # -- rename actions ------------------------------------------------------------

    def rename_speculative(self, entry: InflightInst) -> None:
        """Speculative issue from the S-IQ: allocate a fresh register."""
        self.stats.counters["rat_reads"] += float(len(entry.inst.srcs))
        dst = entry.inst.dst
        if dst is None:
            return
        self._alloc(entry, dst)

    def rename_passed(self, entry: InflightInst) -> None:
        """Pass to the IQ: reuse the current mapping (conditional scheme)
        or allocate conventionally."""
        self.stats.counters["rat_reads"] += float(len(entry.inst.srcs))
        dst = entry.inst.dst
        if dst is None:
            return
        if not self.conditional:
            self._alloc(entry, dst)
            return
        phys = self.rat[dst]
        count = self.pending.get(phys, 0)
        if count >= self.cfg.producer_count_max:
            raise AssertionError("rename_passed without can_pass check")
        self.pending[phys] = count + 1
        entry.phys = phys
        entry.fresh_phys = False
        self.stats.counters["producer_count_incs"] += 1.0

    def _alloc(self, entry: InflightInst, dst: int) -> None:
        fp = dst >= NUM_INT_ARCH
        if fp:
            if self.free_fp <= 0:
                raise AssertionError("allocation without can_alloc check")
            self.free_fp -= 1
        else:
            if self.free_int <= 0:
                raise AssertionError("allocation without can_alloc check")
            self.free_int -= 1
        rat = self.rat
        entry.prev_phys = rat[dst]
        phys = self._next_phys
        entry.phys = phys
        entry.fresh_phys = True
        self._next_phys = phys + 1
        rat[dst] = phys
        counters = self.stats.counters
        counters["rat_writes"] += 1.0
        counters["reg_allocs"] += 1.0
        counters["reg_allocs_fp" if fp else "reg_allocs_int"] += 1.0

    # -- lifecycle events ---------------------------------------------------------

    def on_iq_issue(self, entry: InflightInst) -> None:
        """An IQ instruction issued: drop its ProducerCount share."""
        if entry.inst.dst is None or entry.fresh_phys or not self.conditional:
            return
        phys = entry.phys
        count = self.pending.get(phys, 0)
        if count <= 0:
            raise AssertionError("ProducerCount underflow")
        if count == 1:
            del self.pending[phys]
        else:
            self.pending[phys] = count - 1

    def commit(self, entry: InflightInst) -> None:
        """Commit: a fresh allocation releases the previous mapping."""
        if entry.fresh_phys:
            self._free(entry.inst.dst)

    def _free(self, dst: int) -> None:
        if dst >= NUM_INT_ARCH:
            self.free_fp += 1
        else:
            self.free_int += 1
        self.stats.counters["freelist_ops"] += 1.0

    def squash(self, entries_young_to_old: Iterable[InflightInst]) -> None:
        """Recovery-log walk: undo rename effects of squashed instructions.

        ``entries_young_to_old`` must be the squashed, renamed-but-uncommitted
        instructions in reverse program order.
        """
        for entry in entries_young_to_old:
            dst = entry.inst.dst
            if dst is None:
                continue
            if entry.fresh_phys:
                # Return the allocation and restore the previous mapping.
                self._free(dst)
                if self.rat[dst] == entry.phys:
                    self.rat[dst] = entry.prev_phys
            elif self.conditional and entry.issue_at is None:
                # Passed to the IQ but never issued: ProducerCount recovery
                # by dequeuing (Section III-C5).
                phys = entry.phys
                count = self.pending.get(phys, 0)
                if count > 0:
                    if count == 1:
                        del self.pending[phys]
                    else:
                        self.pending[phys] = count - 1

    # -- invariant helpers (used by tests) ------------------------------------------

    @property
    def free_total(self) -> int:
        return self.free_int + self.free_fp
