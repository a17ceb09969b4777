"""The non-intrusive on-chip profiler of the warp processor.

The profiler observes the simulated MicroBlaze's taken backward branches
(the stand-in for snooping the instruction-side local memory bus) and
feeds them into the :class:`BranchFrequencyCache`.  At the end
of a profiling window it reports the critical regions — candidate loops —
ranked by backward-branch frequency, from which the dynamic partitioning
module selects the single most critical region to implement in hardware,
exactly as in Section 4 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .branch_cache import BranchFrequencyCache


@dataclass(frozen=True)
class CriticalRegion:
    """A candidate loop identified by the profiler.

    ``start_address`` is the backward branch's target (the loop header) and
    ``end_address`` the address of the backward branch itself, so the loop
    body occupies the closed byte range ``[start_address, end_address]``.
    """

    start_address: int
    end_address: int
    frequency: int
    relative_weight: float = 0.0

    @property
    def size_bytes(self) -> int:
        return self.end_address - self.start_address + 4

    @property
    def num_instructions(self) -> int:
        return self.size_bytes // 4

    def contains(self, address: int) -> bool:
        return self.start_address <= address <= self.end_address

    def __str__(self) -> str:
        return (f"loop [{self.start_address:#06x}, {self.end_address:#06x}] "
                f"({self.num_instructions} instructions, "
                f"{self.frequency} iterations observed)")


class OnChipProfiler:
    """Branch observer implementing the warp processor's profiler.

    The hardware profiler snoops the instruction-side local memory bus and
    reacts only to taken backward branches, which is exactly what the
    CPU's observer protocol
    (:class:`~repro.microblaze.trace.BranchObserver`) delivers: every
    engine calls :meth:`on_backward_branch` with two scalars, once per
    loop iteration, or, where the ``jit`` engine runs a self-loop in one
    call, :meth:`on_backward_branches` once with the iteration count.
    """

    def __init__(self, cache: Optional[BranchFrequencyCache] = None):
        self.cache = cache if cache is not None else BranchFrequencyCache()
        self.instructions_observed = 0

    # ---------------------------------------------------------- branch observer
    def on_backward_branch(self, pc: int, target: int) -> None:
        """One taken backward branch as observed on the instruction bus."""
        self.cache.record(pc, target)

    def on_backward_branches(self, pc: int, target: int,
                             count: int) -> None:
        """``count`` consecutive taken backward branches of one loop."""
        self.cache.record_run(pc, target, count)

    def on_run_end(self, instructions: int) -> None:
        """Called by the CPU with the instruction count of a finished run."""
        self.instructions_observed += instructions

    # ------------------------------------------------------------------ results
    def critical_regions(self, top: int = 8) -> List[CriticalRegion]:
        """The hottest candidate loops, most frequent first."""
        total = self.cache.total_count() or 1
        regions = []
        for entry in self.cache.entries()[:top]:
            regions.append(
                CriticalRegion(
                    start_address=entry.target_address,
                    end_address=entry.branch_address,
                    frequency=entry.count,
                    relative_weight=entry.count / total,
                )
            )
        return regions

    def most_critical_region(self) -> Optional[CriticalRegion]:
        """The single most critical region (what the DPM partitions)."""
        regions = self.critical_regions(top=1)
        return regions[0] if regions else None

    def summary(self) -> str:
        region = self.most_critical_region()
        lines = [
            f"profiled {self.instructions_observed} instructions, "
            f"{self.cache.updates} taken backward branches",
        ]
        if region is not None:
            lines.append(f"most critical region: {region}")
        return "\n".join(lines)
