"""Functional and cycle-approximate MicroBlaze CPU model.

The CPU model executes the MicroBlaze-like instruction set defined in
:mod:`repro.isa` with the three-stage-pipeline latencies the paper quotes
(single-cycle ALU operations, three-cycle multiplies, one-to-three cycle
branches, two-cycle local-memory loads) so that both the *behaviour* and
the *cycle count* of an application are available to the rest of the warp
processing flow.

Differences from the real core, all intentional and documented:

* ``cmp``/``cmpu`` produce a clean -1/0/+1 comparison result rather than a
  subtraction with a patched MSB; the compiler, the decompiler, and the
  hardware synthesis all share this definition, so the system is
  self-consistent.
* carry, machine-status and exception state are not modelled (none of the
  benchmark kernels use them),
* ``src`` (shift right through carry) behaves like ``srl``.

What a data instruction computes is not written here: the opcode table
gives each one an operator and its operand sources
(:attr:`~repro.isa.instructions.OpSpec.op`), and the interpreter applies
that operator's reference callable from :mod:`repro.isa.semantics`.
Access widths, absolute branches and ``imm``-prefix fusion come from the
same table and module.  Only the divides are computed here.

The timing model charges each instruction a latency drawn from
:class:`~repro.microblaze.config.PipelineTimings`; it does not model
structural hazards beyond those latencies, which matches the level of
detail the paper's own cycle estimates operate at.

The architectural model is shared by every registered execution engine
(:mod:`repro.microblaze.engines`): ``interp`` is the reference
interpreter implemented here — fetch, dispatch on the instruction class,
execute, record; ``jit`` (the default) compiles superblocks to generated
source once at decode time and dispatches block-at-a-time.  The engines
agree bit for bit, at a runtime fault too (statistics, pc, ``imm``
latch); there only the jit's instruction-fetch port count runs ahead,
by the block words it translated past the fault point.  A run is
watched through one narrow protocol
(:class:`~repro.microblaze.trace.BranchObserver`): observers hear only
taken backward branches, which is all the on-chip profiler snoops, and
keep working at full speed on every engine.  A run outside the selected
engine's declared capabilities (cycle budgets, halt addresses) falls
back to the interpreter.  This module is a thin driver over the engine
registry: engine selection, invalidation and the checkpoint
derived-state rebuild all go through the
:class:`~repro.microblaze.engines.ExecutionEngine` contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..isa.encoding import decode
from ..isa.instructions import Instruction, InstrClass
from ..isa.registers import NUM_REGISTERS, WORD_MASK, to_signed
from ..isa.semantics import BINARY, RELATIONS, UNARY, fuse_imm
from .config import MicroBlazeConfig
from .engines import create_engine
from .memory import BlockRAM
from .opb import OPB_BASE_ADDRESS, OnChipPeripheralBus
from .trace import BranchObserver


class CPUError(Exception):
    """Base class for simulator faults."""


class IllegalInstruction(CPUError):
    """Raised when an instruction needs a hardware unit that is absent,
    or a delay slot contains another branch."""


class ExecutionLimitExceeded(CPUError):
    """Raised when a run exceeds its instruction or cycle budget."""


@dataclass
class ExecutionStats:
    """Aggregate statistics of one simulated run."""

    cycles: int = 0
    instructions: int = 0
    class_counts: Dict[InstrClass, int] = field(default_factory=dict)
    class_cycles: Dict[InstrClass, int] = field(default_factory=dict)
    branches_taken: int = 0
    branches_not_taken: int = 0
    loads: int = 0
    stores: int = 0
    opb_reads: int = 0
    opb_writes: int = 0
    halted: bool = False

    def record(self, klass: InstrClass, cycles: int) -> None:
        self.instructions += 1
        self.cycles += cycles
        self.class_counts[klass] = self.class_counts.get(klass, 0) + 1
        self.class_cycles[klass] = self.class_cycles.get(klass, 0) + cycles

    def merge(self, other: "ExecutionStats") -> None:
        """Accumulate ``other`` into this record (used by multi-kernel runs)."""
        self.cycles += other.cycles
        self.instructions += other.instructions
        for klass, count in other.class_counts.items():
            self.class_counts[klass] = self.class_counts.get(klass, 0) + count
        for klass, count in other.class_cycles.items():
            self.class_cycles[klass] = self.class_cycles.get(klass, 0) + count
        self.branches_taken += other.branches_taken
        self.branches_not_taken += other.branches_not_taken
        self.loads += other.loads
        self.stores += other.stores
        self.opb_reads += other.opb_reads
        self.opb_writes += other.opb_writes

    # ------------------------------------------------------------ serialization
    def to_plain(self) -> Dict:
        """A plain-builtins view of the record (checkpoint serialization).

        Instruction classes are stored by *name* so the checkpoint format
        does not depend on enum identity or ordering.
        """
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "class_counts": {klass.name: count
                             for klass, count in self.class_counts.items()},
            "class_cycles": {klass.name: count
                             for klass, count in self.class_cycles.items()},
            "branches_taken": self.branches_taken,
            "branches_not_taken": self.branches_not_taken,
            "loads": self.loads,
            "stores": self.stores,
            "opb_reads": self.opb_reads,
            "opb_writes": self.opb_writes,
            "halted": self.halted,
        }

    @classmethod
    def from_plain(cls, plain: Dict) -> "ExecutionStats":
        """Inverse of :meth:`to_plain`."""
        return cls(
            cycles=plain["cycles"],
            instructions=plain["instructions"],
            class_counts={InstrClass[name]: count
                          for name, count in plain["class_counts"].items()},
            class_cycles={InstrClass[name]: count
                          for name, count in plain["class_cycles"].items()},
            branches_taken=plain["branches_taken"],
            branches_not_taken=plain["branches_not_taken"],
            loads=plain["loads"],
            stores=plain["stores"],
            opb_reads=plain["opb_reads"],
            opb_writes=plain["opb_writes"],
            halted=plain["halted"],
        )


class MicroBlazeCPU:
    """Executable model of one MicroBlaze core.

    Parameters
    ----------
    config:
        Processor configuration (optional units, clock, latency table).
    instr_bram / data_bram:
        The local-memory block RAMs of Figure 1.
    opb:
        Optional on-chip peripheral bus; loads and stores whose effective
        address is at or above :data:`~repro.microblaze.opb.OPB_BASE_ADDRESS`
        are routed there.
    """

    def __init__(
        self,
        config: MicroBlazeConfig,
        instr_bram: BlockRAM,
        data_bram: BlockRAM,
        opb: Optional[OnChipPeripheralBus] = None,
        engine: Optional[str] = None,
    ):
        from .engine import NUM_COUNTERS

        self.config = config
        self.instr_bram = instr_bram
        self.data_bram = data_bram
        self.opb = opb
        #: Register file.  The list identity is stable for the CPU's whole
        #: lifetime (reset mutates in place) because the block engines'
        #: generated code binds it once.
        self.registers: List[int] = [0] * NUM_REGISTERS
        self.pc = 0
        self.halted = False
        self.halt_address: Optional[int] = None
        self.stats = ExecutionStats()
        self._imm_latch: Optional[int] = None
        self._observers: List[BranchObserver] = []
        #: Whether every attached observer has ``on_backward_branches``
        #: (a jit self-loop then delivers its branches in one call).
        self._bulk_observers = True
        self._decoded: Dict[int, Instruction] = {}
        #: Scalar statistics counters (block-engine hot path); identity
        #: stable like ``registers``, folded into :attr:`stats` on sync.
        self._counters: List[int] = [0] * NUM_COUNTERS
        #: The execution engine, resolved against the registry
        #: (:mod:`repro.microblaze.engines`); unknown names raise
        #: :class:`~repro.microblaze.engines.UnknownEngineError` listing
        #: the registered engines.  Created last: engines may bind any of
        #: the state above at construction time.
        self._engine_impl = create_engine(engine, self)
        self.engine = self._engine_impl.name

    @property
    def _blocks(self) -> Dict[int, tuple]:
        """The engine's superblock cache (entry address -> translation).

        Kept as a property for the block-layout tests and diagnostics;
        the interpreter's cache is always empty.
        """
        return self._engine_impl.blocks

    # ------------------------------------------------------------------ setup
    def add_listener(self, listener: BranchObserver) -> None:
        """Subscribe ``listener`` to the run's taken backward branches.

        The listener receives ``on_backward_branch(pc, target)`` for every
        taken branch with ``target < pc`` (and an optional
        ``on_run_end(instructions)`` at the end of each run).  While every
        attached listener also has ``on_backward_branches(pc, target,
        count)``, a jit self-loop hands them its branches as one count
        when it exits instead
        (:class:`~repro.microblaze.trace.BranchObserver`).  An object
        without ``on_backward_branch`` raises :class:`TypeError`.
        """
        if not callable(getattr(listener, "on_backward_branch", None)):
            raise TypeError(
                f"{type(listener).__name__} has no on_backward_branch(pc, "
                "target); the CPU reports only taken backward branches")
        self._observers.append(listener)
        self._update_bulk_observers()

    def remove_listener(self, listener: BranchObserver) -> None:
        self._observers.remove(listener)
        self._update_bulk_observers()

    def _update_bulk_observers(self) -> None:
        self._bulk_observers = all(
            callable(getattr(observer, "on_backward_branches", None))
            for observer in self._observers)

    def reset(self, entry_point: int = 0, stack_pointer: Optional[int] = None) -> None:
        """Reset architectural state and point the PC at ``entry_point``."""
        self.registers[:] = [0] * NUM_REGISTERS
        if stack_pointer is None:
            stack_pointer = self.data_bram.size - 4
        self.registers[1] = stack_pointer & WORD_MASK
        self.pc = entry_point
        self.halted = False
        self.stats = ExecutionStats()
        self._imm_latch = None
        self._counters[:] = [0] * len(self._counters)

    # -------------------------------------------------------------- registers
    def read_register(self, index: int) -> int:
        return 0 if index == 0 else self.registers[index]

    def write_register(self, index: int, value: int) -> None:
        if index != 0:
            self.registers[index] = value & WORD_MASK

    # ------------------------------------------------------------------ fetch
    def fetch(self, address: int) -> Instruction:
        """Fetch and decode the instruction at byte ``address``.

        Decoded instructions (and the superblocks compiled from them) are
        cached across runs; the caches are invalidated explicitly by
        :meth:`invalidate_decode_cache` when the dynamic partitioning
        module patches the binary, and by :meth:`MicroBlazeSystem.load
        <repro.microblaze.system.MicroBlazeSystem.load>` when a new image
        is written to the instruction BRAM.
        """
        cached = self._decoded.get(address)
        if cached is not None:
            return cached
        word = self.instr_bram.load(address, 4)
        instr = decode(word, address=address)
        self._decoded[address] = instr
        return instr

    def invalidate_decode_cache(self, address: Optional[int] = None) -> None:
        """Drop cached decodes and superblocks.

        With ``address=None`` everything is dropped.  With a byte address —
        the granularity at which the dynamic partitioning module patches
        single words — only the decode entry for that address and the
        superblocks whose compiled range covers it are dropped, so an
        executing application keeps the translations for untouched code.
        """
        if address is None:
            self._decoded.clear()
        else:
            self._decoded.pop(address, None)
        self._engine_impl.invalidate(address)

    # ------------------------------------------------------------- checkpointing
    def snapshot_state(self) -> Dict:
        """Architectural state as plain builtins (checkpoint/restore hook).

        The scalar counter array is folded into :attr:`stats` first, so the
        snapshot is engine-independent: a state captured on the jit
        engine restores bit-exactly onto the interpreter and vice versa.
        Decode and superblock caches are *not* part of the architectural
        state (they are rebuilt lazily after a restore).
        """
        self._sync_counters()
        return {
            "registers": list(self.registers),
            "pc": self.pc,
            "halted": self.halted,
            "halt_address": self.halt_address,
            "imm_latch": self._imm_latch,
            "stats": self.stats.to_plain(),
        }

    def restore_state(self, state: Dict) -> None:
        """Restore a :meth:`snapshot_state` capture (checkpoint hook)."""
        self.registers[:] = [value & WORD_MASK for value in state["registers"]]
        self.pc = state["pc"]
        self.halted = state["halted"]
        self.halt_address = state["halt_address"]
        self._imm_latch = state["imm_latch"]
        self.stats = ExecutionStats.from_plain(state["stats"])
        self._counters[:] = [0] * len(self._counters)
        # Derived state: the decode cache and the engine's translations are
        # never part of a snapshot and must be rebuilt lazily.
        self._decoded.clear()
        self._engine_impl.on_restore()

    # -------------------------------------------------------------- execution
    def run(self, max_instructions: int = 50_000_000,
            max_cycles: Optional[int] = None) -> ExecutionStats:
        """Run until the program halts or a budget is exceeded.

        The selected engine's dispatch loop runs whenever its declared
        capabilities fit this run; otherwise — cycle budgets or halt
        addresses on a block engine — the reference interpreter takes
        over, which is always semantically equivalent.
        """
        start_instructions = self.stats.instructions
        impl = self._engine_impl
        use_impl = (
            (impl.supports_max_cycles or max_cycles is None)
            and (impl.supports_halt_address or self.halt_address is None)
        )
        try:
            if use_impl:
                impl.run(max_instructions, max_cycles)
            else:
                self._run_interpreted(max_instructions, max_cycles)
        finally:
            executed = self.stats.instructions - start_instructions
            for observer in self._observers:
                on_run_end = getattr(observer, "on_run_end", None)
                if callable(on_run_end):
                    on_run_end(executed)
        self.stats.halted = True
        return self.stats

    def _run_interpreted(self, max_instructions: int,
                         max_cycles: Optional[int]) -> None:
        """The reference fetch/dispatch/execute loop."""
        while not self.halted:
            if self.stats.instructions >= max_instructions:
                raise ExecutionLimitExceeded(
                    f"exceeded {max_instructions} instructions at pc={self.pc:#x}"
                )
            if max_cycles is not None and self.stats.cycles >= max_cycles:
                raise ExecutionLimitExceeded(
                    f"exceeded {max_cycles} cycles at pc={self.pc:#x}"
                )
            self.step()

    def _drain_imm_latch(self, max_instructions: int) -> None:
        """Consume a pending ``imm`` latch on the interpreter.

        Block engines call this before dispatching: a latch left by manual
        :meth:`step` calls must be consumed per-instruction so that block
        entry always starts latch-free, which is what the statically fused
        translations assume.
        """
        while self._imm_latch is not None and not self.halted:
            if self.stats.instructions >= max_instructions:
                raise ExecutionLimitExceeded(
                    f"exceeded {max_instructions} instructions at pc={self.pc:#x}"
                )
            self.step()

    def _sync_counters(self) -> None:
        """Fold the scalar counter array into :attr:`stats` and zero it."""
        from .engine import (CLASS_LIST, CNT_BRANCHES_NOT_TAKEN,
                             CNT_BRANCHES_TAKEN, CNT_CLASS_COUNT,
                             CNT_CLASS_CYCLES, CNT_CYCLES, CNT_INSTRUCTIONS,
                             CNT_LOADS, CNT_OPB_READS, CNT_OPB_WRITES,
                             CNT_STORES)

        counters = self._counters
        stats = self.stats
        stats.cycles += counters[CNT_CYCLES]
        stats.instructions += counters[CNT_INSTRUCTIONS]
        stats.branches_taken += counters[CNT_BRANCHES_TAKEN]
        stats.branches_not_taken += counters[CNT_BRANCHES_NOT_TAKEN]
        stats.loads += counters[CNT_LOADS]
        stats.stores += counters[CNT_STORES]
        stats.opb_reads += counters[CNT_OPB_READS]
        stats.opb_writes += counters[CNT_OPB_WRITES]
        for index, klass in enumerate(CLASS_LIST):
            count = counters[CNT_CLASS_COUNT + index]
            if count:
                stats.class_counts[klass] = \
                    stats.class_counts.get(klass, 0) + count
            cycles = counters[CNT_CLASS_CYCLES + index]
            if cycles:
                stats.class_cycles[klass] = \
                    stats.class_cycles.get(klass, 0) + cycles
        counters[:] = [0] * len(counters)

    def step(self) -> int:
        """Execute one instruction (plus its delay slot, if any).

        Returns the number of cycles charged.
        """
        if self.halted:
            return 0
        if self.halt_address is not None and self.pc == self.halt_address:
            self.halted = True
            return 0
        pc = self.pc
        instr = self.fetch(pc)
        cycles = self._execute(pc, instr)
        return cycles

    # ------------------------------------------------------------ the executor
    def _effective_imm(self, instr: Instruction) -> int:
        """Combine the instruction immediate with a pending ``imm`` prefix."""
        return fuse_imm(self._imm_latch, instr.imm)

    def _check_unit(self, instr: Instruction) -> None:
        unit = instr.requires
        if unit is not None and not self.config.has_unit(unit):
            raise IllegalInstruction(
                f"{instr.mnemonic} at {instr.address:#x} requires the "
                f"{unit.value} which is not configured"
            )

    def _execute(self, pc: int, instr: Instruction) -> int:
        timings = self.config.timings
        klass = instr.klass
        self._check_unit(instr)

        branch_taken: Optional[bool] = None
        branch_target: Optional[int] = None
        next_pc = pc + 4
        imm_consumed = True

        regs = self.registers
        ra_val = 0 if instr.ra == 0 else regs[instr.ra]
        rb_val = 0 if instr.rb == 0 else regs[instr.rb]
        rd_val = 0 if instr.rd == 0 else regs[instr.rd]

        if klass in (InstrClass.ALU, InstrClass.LOGICAL, InstrClass.SHIFT,
                     InstrClass.BARREL_SHIFT, InstrClass.MULTIPLY,
                     InstrClass.DIVIDE, InstrClass.COMPARE, InstrClass.SEXT):
            cycles = timings.for_class(klass)
            result = self._compute(instr, ra_val, rb_val)
            self.write_register(instr.rd, result)

        elif klass is InstrClass.IMM_PREFIX:
            cycles = timings.imm_prefix
            self._imm_latch = instr.imm & 0xFFFF
            imm_consumed = False

        elif klass is InstrClass.LOAD:
            imm = self._effective_imm(instr)
            address = (ra_val + (rb_val if instr.spec.fmt.value == "A" else imm)) & WORD_MASK
            width = instr.spec.width
            cycles = timings.load
            if self.opb is not None and address >= OPB_BASE_ADDRESS \
                    and (value := self.opb.try_read(address)) is not None:
                cycles += timings.opb_access_extra
                self.stats.opb_reads += 1
            else:
                value = self.data_bram.load(address, width)
            self.write_register(instr.rd, value)
            self.stats.loads += 1

        elif klass is InstrClass.STORE:
            imm = self._effective_imm(instr)
            address = (ra_val + (rb_val if instr.spec.fmt.value == "A" else imm)) & WORD_MASK
            width = instr.spec.width
            cycles = timings.store
            if self.opb is not None and address >= OPB_BASE_ADDRESS \
                    and self.opb.try_write(address, rd_val):
                cycles += timings.opb_access_extra
                self.stats.opb_writes += 1
            else:
                self.data_bram.store(address, rd_val, width)
            self.stats.stores += 1

        elif klass is InstrClass.BRANCH_COND:
            imm = self._effective_imm(instr)
            taken = RELATIONS[instr.spec.condition.name.lower()](ra_val)
            branch_taken = taken
            if taken:
                offset = rb_val if instr.spec.fmt.value == "A" else imm
                branch_target = (pc + to_signed(offset)) & WORD_MASK
                cycles = timings.branch_taken
            else:
                cycles = timings.branch_not_taken
            if instr.has_delay_slot:
                cycles += self._execute_delay_slot(pc)
                next_pc = branch_target if taken else pc + 8
            else:
                next_pc = branch_target if taken else pc + 4
            self.stats.branches_taken += int(taken)
            self.stats.branches_not_taken += int(not taken)

        elif klass in (InstrClass.BRANCH_UNCOND, InstrClass.CALL, InstrClass.RETURN):
            imm = self._effective_imm(instr)
            if klass is InstrClass.RETURN:
                branch_target = (ra_val + imm) & WORD_MASK
                cycles = timings.ret
            else:
                if instr.spec.fmt.value == "A":
                    offset_or_abs = rb_val
                else:
                    offset_or_abs = imm
                if instr.spec.absolute:
                    branch_target = offset_or_abs & WORD_MASK
                else:
                    branch_target = (pc + to_signed(offset_or_abs)) & WORD_MASK
                cycles = timings.call if klass is InstrClass.CALL else timings.branch_taken
                if klass is InstrClass.CALL:
                    self.write_register(instr.rd, pc)
            branch_taken = True
            # A PC-relative unconditional branch to itself is the halt idiom.
            if branch_target == pc and klass is InstrClass.BRANCH_UNCOND:
                self.halted = True
            if instr.has_delay_slot and not self.halted:
                cycles += self._execute_delay_slot(pc)
            next_pc = branch_target
            self.stats.branches_taken += 1

        else:  # pragma: no cover - defensive, all classes handled above
            raise IllegalInstruction(f"unhandled instruction class {klass}")

        if imm_consumed:
            self._imm_latch = None
        self.stats.record(klass, cycles)
        opb = self.opb
        if opb is not None and opb.ticking:
            # Interpreter granularity: opted-in peripherals see time
            # advance per executed instruction (block engines batch this
            # into one tick per superblock; see repro.microblaze.engines).
            opb.deliver_ticks(cycles)
        self.pc = next_pc
        if self.halt_address is not None and self.pc == self.halt_address:
            self.halted = True

        if branch_taken and branch_target < pc and self._observers:
            for observer in self._observers:
                observer.on_backward_branch(pc, branch_target)
        return cycles

    def _execute_delay_slot(self, branch_pc: int) -> int:
        """Execute the instruction in the delay slot of a branch at ``branch_pc``."""
        slot_pc = branch_pc + 4
        slot_instr = self.fetch(slot_pc)
        if slot_instr.is_branch or slot_instr.klass is InstrClass.IMM_PREFIX:
            raise IllegalInstruction(
                f"illegal instruction {slot_instr.mnemonic} in delay slot at {slot_pc:#x}"
            )
        saved_pc = self.pc
        self.pc = slot_pc
        # Delay slot instructions cannot themselves branch, so _execute simply
        # advances self.pc which we restore below.
        cycles = self._execute(slot_pc, slot_instr)
        self.pc = saved_pc
        return cycles

    # ------------------------------------------------------------ ALU helpers
    def _compute(self, instr: Instruction, ra_val: int, rb_val: int) -> int:
        """Compute the result of a register-writing data instruction: the
        opcode table's operator over its operand sources, or a divide."""
        op = instr.spec.op
        if op is None:
            if instr.mnemonic == "idiv":
                from .engine import signed_division
                return signed_division(to_signed(rb_val), to_signed(ra_val))
            return (rb_val // ra_val) & WORD_MASK if ra_val else 0
        values = {"ra": ra_val, "rb": rb_val, 1: 1,
                  "imm": self._effective_imm(instr) & WORD_MASK,
                  "imm5": instr.imm & 31}
        kind, *sources = op
        args = [values[source] for source in sources]
        if len(args) == 1:
            return UNARY[kind](*args)
        return BINARY[kind](*args)
