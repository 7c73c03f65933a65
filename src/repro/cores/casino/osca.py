"""Outstanding Store Counter Array (Section III-C4).

A small, direct-mapped, tagless array of saturating counters indexed by the
low bits of the memory address (4-byte granules).  Counters are incremented
when a store's address resolves and decremented when the store retires (or
is squashed), so a zero counter proves no outstanding store targets those
bytes and the load may skip its associative SQ/SB search.

Each counter is ``log2(SQ+SB entries)`` bits wide (Section IV-3) so it can
hold every outstanding store — saturation, and the deadlock it could cause,
is impossible by construction; this module asserts that invariant.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.common.stats import Stats


class Osca:
    """The OSCA filter."""

    def __init__(self, entries: int = 64, granule: int = 4,
                 max_outstanding: int = 8,
                 stats: Optional[Stats] = None) -> None:
        if entries <= 0 or granule <= 0:
            raise ValueError("entries and granule must be positive")
        self.entries = entries
        self.granule = granule
        # Counter width log2(SQ+SB): with 8 outstanding stores this is
        # 3 bits minimum; any store may touch two granules, hence 2x.
        self.cap = 2 * max_outstanding
        self.counters = [0] * entries
        self.stats = stats if stats is not None else Stats()

    def _slots(self, addr: int, size: int) -> Iterable[int]:
        granule = self.granule
        entries = self.entries
        return [slot % entries for slot in
                range(addr // granule, (addr + size - 1) // granule + 1)]

    def inc(self, addr: int, size: int) -> None:
        """A store to [addr, addr+size) became outstanding."""
        counters = self.counters
        for slot in self._slots(addr, size):
            if counters[slot] >= self.cap:
                raise AssertionError(
                    "OSCA counter saturated: sizing invariant violated")
            counters[slot] += 1

    def dec(self, addr: int, size: int) -> None:
        """A store retired (or was squashed after resolving)."""
        counters = self.counters
        for slot in self._slots(addr, size):
            if counters[slot] <= 0:
                raise AssertionError("OSCA counter underflow")
            counters[slot] -= 1

    def outstanding(self, addr: int, size: int) -> int:
        """Max counter value over the load's granules (0 => skip search)."""
        self.stats.counters["osca_access"] += 1.0
        counters = self.counters
        return max([counters[slot] for slot in self._slots(addr, size)])

    @property
    def total(self) -> int:
        """Sum of all counters (used by invariant checks in tests)."""
        return sum(self.counters)
