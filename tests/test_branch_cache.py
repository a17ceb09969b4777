"""The profiler's branch cache against a plain set-scanning reference.

:class:`~repro.profiler.branch_cache.BranchFrequencyCache` finds resident
entries through a target -> entry dict kept in step with FIFO eviction.
The reference below is the straightforward model that scans the target's
set on every record.  Seeded random branch streams, over geometries small
enough to evict constantly and counters narrow enough to saturate, must
leave both with identical entries, evictions and updates, and the
on-chip profiler built on either with identical edge counts and rankings.
Saturated counters are checked on a fixed stream.
"""

from __future__ import annotations

import random
from typing import List

import pytest

from repro.profiler.branch_cache import BranchCacheEntry, BranchFrequencyCache
from repro.profiler.profiler import OnChipProfiler


class ReferenceBranchCache(BranchFrequencyCache):
    """Set-scanning ``record`` (no resident index)."""

    def record(self, branch_address: int, target_address: int) -> None:
        self.updates += 1
        bucket = self.sets[self._set_index(target_address)]
        for entry in bucket:
            if entry.target_address == target_address:
                entry.count = min(entry.count + 1, self.counter_max)
                entry.branch_address = branch_address
                return
        entry = BranchCacheEntry(target_address=target_address,
                                 branch_address=branch_address, count=1)
        if len(bucket) >= self.associativity:
            bucket.pop(0)
            self.evictions += 1
        bucket.append(entry)


def _stream(seed: int, length: int) -> List[tuple]:
    """``(pc, target, taken)`` branches: a few hot loops plus noise, with
    forward and not-taken branches mixed in."""
    rng = random.Random(seed)
    loops = [(rng.randrange(0x100, 0x4000, 4), rng.randrange(4, 64, 4))
             for _ in range(rng.randint(2, 24))]
    stream = []
    for _ in range(length):
        if rng.random() < 0.8:
            header, size = rng.choice(loops)
            stream.append((header + size, header, rng.random() < 0.95))
        else:
            pc = rng.randrange(0, 0x4000, 4)
            stream.append((pc, rng.randrange(0, 0x4000, 4),
                           rng.random() < 0.5))
    return stream


def _state(cache: BranchFrequencyCache) -> tuple:
    return (
        [(e.target_address, e.branch_address, e.count)
         for e in cache.entries()],
        [[(e.target_address, e.branch_address, e.count) for e in bucket]
         for bucket in cache.sets],
        cache.evictions,
        cache.updates,
        cache.total_count(),
    )


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("geometry", [(16, 4, 32), (4, 2, 3), (8, 1, 2),
                                      (64, 8, 32)],
                         ids=["paper", "tiny", "direct-mapped", "large"])
def test_resident_index_matches_set_scan(seed, geometry):
    entries, ways, bits = geometry
    fast = OnChipProfiler(BranchFrequencyCache(entries, ways, bits))
    reference = OnChipProfiler(ReferenceBranchCache(entries, ways, bits))
    for step, (pc, target, taken) in enumerate(_stream(seed, 4000)):
        fast.on_branch(pc, target, taken)
        reference.on_branch(pc, target, taken)
        if step == 2000 and seed % 3 == 0:
            fast.cache.clear()
            reference.cache.clear()
    assert _state(fast.cache) == _state(reference.cache)
    assert fast.edge_counts == reference.edge_counts
    assert fast.critical_regions() == reference.critical_regions()
    assert (fast.total_branches, fast.backward_taken) \
        == (reference.total_branches, reference.backward_taken)


def test_saturated_counters_stay_put_and_follow_the_branch():
    fast = BranchFrequencyCache(4, 2, counter_bits=3)
    reference = ReferenceBranchCache(4, 2, counter_bits=3)
    for step in range(20):
        for cache in (fast, reference):
            cache.record(0x40 + 4 * (step % 3), 0x20)
            cache.record(0x90, 0x80)
    assert _state(fast) == _state(reference)
    hottest = fast.hottest()
    assert hottest.count == 7 and hottest.branch_address == 0x40 + 4 * (19 % 3)
