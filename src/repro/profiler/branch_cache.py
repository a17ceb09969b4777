"""Frequent-loop-detection branch cache.

The warp processor's profiler (Figure 2) is based on the non-intrusive
frequent loop detector of Gordon-Ross and Vahid (CASES 2003): it snoops the
instruction-side local memory bus and, whenever a *backward branch* is
taken, updates a small cache of saturating counters indexed by the branch's
target address.  Because loops execute their backward branch once per
iteration, the hottest cache entries identify the most frequently executed
loops without instrumenting the program at all.

The cache is modelled faithfully enough to study its behaviour: it has a
configurable number of entries and associativity, uses FIFO replacement
within a set, and saturates its counters, so a profile can be perturbed by
conflict evictions exactly the way a real small cache would be.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class BranchCacheEntry:
    """One entry of the profiler cache."""

    target_address: int
    branch_address: int
    count: int = 0


class BranchFrequencyCache:
    """Small set-associative cache of backward-branch frequencies."""

    def __init__(self, num_entries: int = 16, associativity: int = 4,
                 counter_bits: int = 32):
        if num_entries <= 0 or associativity <= 0:
            raise ValueError("cache geometry must be positive")
        if num_entries % associativity:
            raise ValueError("num_entries must be a multiple of associativity")
        self.num_entries = num_entries
        self.associativity = associativity
        self.num_sets = num_entries // associativity
        self.counter_max = (1 << counter_bits) - 1
        self.sets: List[List[BranchCacheEntry]] = [[] for _ in range(self.num_sets)]
        #: Target address -> its resident entry, kept in step with the
        #: sets (a target maps to one set, so it is resident at most once):
        #: the hit path of :meth:`record` is one dict lookup instead of a
        #: set scan.
        self._resident: Dict[int, BranchCacheEntry] = {}
        self.evictions = 0
        self.updates = 0

    def _set_index(self, target_address: int) -> int:
        return (target_address >> 2) % self.num_sets

    def record(self, branch_address: int, target_address: int) -> None:
        """Record one taken backward branch."""
        self.updates += 1
        entry = self._resident.get(target_address)
        if entry is not None:
            if entry.count < self.counter_max:
                entry.count += 1
            entry.branch_address = branch_address
            return
        entry = BranchCacheEntry(target_address=target_address,
                                 branch_address=branch_address, count=1)
        bucket = self.sets[self._set_index(target_address)]
        if len(bucket) >= self.associativity:
            # FIFO replacement
            del self._resident[bucket.pop(0).target_address]
            self.evictions += 1
        bucket.append(entry)
        self._resident[target_address] = entry

    def entries(self) -> List[BranchCacheEntry]:
        """All resident entries, hottest first."""
        resident = [entry for bucket in self.sets for entry in bucket]
        return sorted(resident, key=lambda e: e.count, reverse=True)

    def hottest(self) -> Optional[BranchCacheEntry]:
        """The most frequently executed backward branch currently resident."""
        resident = self.entries()
        return resident[0] if resident else None

    def total_count(self) -> int:
        return sum(entry.count for bucket in self.sets for entry in bucket)

    def clear(self) -> None:
        self.sets = [[] for _ in range(self.num_sets)]
        self._resident = {}
        self.evictions = 0
        self.updates = 0
