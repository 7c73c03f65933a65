"""Functional-unit pool: per-cycle issue-port accounting.

Table I gives every model 2 integer ALUs, 2 FP units and 2 AGUs; wider
configurations scale them with the pipeline width.
"""

from __future__ import annotations

from repro.common.params import CoreConfig
from repro.isa.opcodes import FU_FOR_OP, OpClass


class FuPool:
    """Tracks functional-unit availability within one cycle."""

    def __init__(self, cfg: CoreConfig) -> None:
        self.capacity = [cfg.n_alu, cfg.n_fpu, cfg.n_agu]
        self.free = list(self.capacity)
        self.store_port_free = True  # one L1D write port for retiring stores
        # Units claimed since the last reset (issue ports + store port), so
        # an issue-free cycle's reset is one int compare.
        self._taken = 0

    def reset(self) -> None:
        """Start a new cycle: all units available again."""
        if self._taken == 0:
            return  # nothing issued last cycle: already pristine
        self.free[0] = self.capacity[0]
        self.free[1] = self.capacity[1]
        self.free[2] = self.capacity[2]
        self.store_port_free = True
        self._taken = 0

    def available(self, op: OpClass) -> bool:
        """Is a unit of the right type free this cycle?"""
        return self.free[FU_FOR_OP[op]] > 0

    def zero_capacity(self, op: OpClass) -> bool:
        """True when ``op`` can *never* issue (no unit of its type exists).
        With a fully stocked pool this is the only way ``take`` can fail,
        which is what lets the evaluators test issueability read-only."""
        return self.capacity[FU_FOR_OP[op]] == 0

    def take(self, op: OpClass) -> bool:
        """Claim a unit for ``op``; False if none left this cycle."""
        fu = FU_FOR_OP[op]
        if self.free[fu] <= 0:
            return False
        self.free[fu] -= 1
        self._taken += 1
        return True

    def take_store_port(self) -> bool:
        """Claim the L1D write port for a retiring store."""
        if not self.store_port_free:
            return False
        self.store_port_free = False
        self._taken += 1
        return True
