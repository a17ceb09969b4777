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
    The two scalars are all an observer gets: the jit keeps a self-loop's
    registers and statistics in locals until the loop exits, so an
    observer must not read CPU registers or statistics mid-run.  An
    observer that raises stops the run with the branch completed (pc at
    the target, ``imm`` latch clear) on every engine.

    The optional ``on_backward_branches(pc, target, count)`` is defined
    as exactly ``count`` calls of ``on_backward_branch(pc, target)`` and
    must not raise.  While *every* attached observer has it, a ``jit``
    self-loop calls no observer per iteration: it delivers the loop's
    branches in one call when it exits (on a fault, the branches already
    completed).  Other blocks and the interpreter still call
    ``on_backward_branch`` per branch, and so does every self-loop while
    one observer lacks the bulk method, so a raising observer keeps its
    exact stop point.
    The optional ``on_run_end(n)`` callback reports the number of
    instructions executed by the finished (or faulted) run, which is how
    the profiler keeps its ``instructions_observed`` figure without
    per-instruction traffic.
    """

    def on_backward_branch(self, pc: int, target: int) -> None:
        ...

    def on_backward_branches(self, pc: int, target: int, count: int) -> None:
        ...

    def on_run_end(self, instructions: int) -> None:
        ...
