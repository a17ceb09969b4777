"""Instruction tracing infrastructure.

The paper obtains an instruction trace from the Xilinx Microprocessor Debug
Engine and feeds it to a simulation of the on-chip profiler; we reproduce
the same flow by letting observers subscribe to the simulated MicroBlaze's
execution stream.  A trace event carries the program counter, the decoded
instruction, the cycles the instruction cost, and — for branches — whether
the branch was taken and where it went, which is exactly the information
the non-intrusive profiler sees on the instruction-side local memory bus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol

from ..isa.instructions import Instruction, InstrClass


@dataclass(frozen=True)
class TraceEvent:
    """One executed instruction as observed on the instruction bus."""

    pc: int
    instruction: Instruction
    cycles: int
    branch_taken: Optional[bool] = None
    branch_target: Optional[int] = None

    @property
    def is_branch(self) -> bool:
        return self.branch_taken is not None

    @property
    def is_backward_branch(self) -> bool:
        return bool(self.branch_taken) and self.branch_target is not None \
            and self.branch_target < self.pc


class TraceListener(Protocol):
    """Anything that wants to observe the full execution stream.

    Full-trace listeners receive one :class:`TraceEvent` per executed
    instruction.  That allocation-per-instruction is exactly what the
    block engines remove from the hot path, so attaching a
    full-trace listener makes the CPU fall back to the reference
    interpreter for the duration of the run.  Observers that only need
    branches — the on-chip profiler snoops nothing else — should implement
    :class:`BranchObserver` instead and stay on the fast path.
    """

    def on_instruction(self, event: TraceEvent) -> None:
        ...


class BranchObserver(Protocol):
    """Zero-allocation observer protocol for branch events.

    The CPU recognises an observer exposing a callable ``on_branch`` and
    routes it onto a scalar callback fed directly from the branch handlers
    of the execution engine — no :class:`TraceEvent` is materialised.
    ``on_branch(pc, target, taken)`` fires for every executed branch
    (conditional, unconditional, call and return); ``target`` is ``None``
    for a not-taken conditional branch, mirroring
    :attr:`TraceEvent.branch_target`.  The optional ``on_run_end(n)``
    callback reports the number of instructions executed by the finished
    (or faulted) run, which is how the profiler keeps its
    ``instructions_observed`` figure without per-instruction traffic.
    """

    def on_branch(self, pc: int, target: Optional[int], taken: bool) -> None:
        ...

    def on_run_end(self, instructions: int) -> None:
        ...


class InstructionTraceRecorder:
    """Records the full execution stream (optionally capped).

    Storing every event of a long run is memory hungry; ``max_events``
    truncates the recording while keeping the counters exact, which is all
    the experiment harness needs.
    """

    def __init__(self, max_events: Optional[int] = None):
        self.max_events = max_events
        self.events: List[TraceEvent] = []
        self.total_events = 0

    def on_instruction(self, event: TraceEvent) -> None:
        self.total_events += 1
        if self.max_events is None or len(self.events) < self.max_events:
            self.events.append(event)

    @property
    def truncated(self) -> bool:
        return self.total_events > len(self.events)


class BranchTraceRecorder:
    """Records only branch events — the input the on-chip profiler consumes."""

    def __init__(self):
        self.events: List[TraceEvent] = []

    def on_instruction(self, event: TraceEvent) -> None:
        if event.is_branch:
            self.events.append(event)

    def backward_taken_branches(self) -> List[TraceEvent]:
        return [e for e in self.events if e.is_backward_branch]


class ClassProfile:
    """Counts executed instructions and cycles per instruction class."""

    def __init__(self):
        self.instruction_counts: Dict[InstrClass, int] = {}
        self.cycle_counts: Dict[InstrClass, int] = {}

    def on_instruction(self, event: TraceEvent) -> None:
        klass = event.instruction.klass
        self.instruction_counts[klass] = self.instruction_counts.get(klass, 0) + 1
        self.cycle_counts[klass] = self.cycle_counts.get(klass, 0) + event.cycles

    @property
    def total_instructions(self) -> int:
        return sum(self.instruction_counts.values())

    @property
    def total_cycles(self) -> int:
        return sum(self.cycle_counts.values())


class PcCycleHistogram:
    """Attributes executed cycles to program-counter values.

    The warp-processing study needs to know what fraction of the execution
    time falls inside the selected critical region; summing this histogram
    over the kernel's address range answers that directly.
    """

    def __init__(self):
        self.cycles_by_pc: Dict[int, int] = {}
        self.visits_by_pc: Dict[int, int] = {}

    def on_instruction(self, event: TraceEvent) -> None:
        self.cycles_by_pc[event.pc] = self.cycles_by_pc.get(event.pc, 0) + event.cycles
        self.visits_by_pc[event.pc] = self.visits_by_pc.get(event.pc, 0) + 1

    def cycles_in_range(self, lo: int, hi: int) -> int:
        """Total cycles attributed to addresses in ``[lo, hi]`` inclusive."""
        return sum(c for pc, c in self.cycles_by_pc.items() if lo <= pc <= hi)

    def total_cycles(self) -> int:
        return sum(self.cycles_by_pc.values())
