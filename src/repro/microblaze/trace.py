"""The branch-observer protocol: the one way to watch a run.

The paper's on-chip profiler is a small piece of hardware on the
instruction-side local memory bus that reacts only to taken backward
branches (the frequent-loop detector of Gordon-Ross and Vahid).  The
simulated CPU reports exactly that event and nothing else, so an
observer costs nothing on straight-line code, forward branches or
not-taken branches, on every execution engine.
"""

from __future__ import annotations

from typing import Protocol


class BranchObserver(Protocol):
    """Observer of taken backward branches.

    ``on_backward_branch(pc, target)`` fires for every taken branch whose
    target lies below the branch (``target < pc``): one loop iteration.
    The optional ``on_run_end(n)`` callback reports the number of
    instructions executed by the finished (or faulted) run, which is how
    the profiler keeps its ``instructions_observed`` figure without
    per-instruction traffic.
    """

    def on_backward_branch(self, pc: int, target: int) -> None:
        ...

    def on_run_end(self, instructions: int) -> None:
        ...
