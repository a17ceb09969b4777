"""Complete MicroBlaze system model (Figure 1 of the paper).

A :class:`MicroBlazeSystem` wires together the processor core, the
instruction and data block RAMs on their local memory busses, and the
on-chip peripheral bus with whatever peripherals the experiment needs
(ordinary peripherals, or the warp configurable logic architecture once the
dynamic partitioning module has generated hardware).  It loads a
:class:`~repro.isa.program.Program` into the BRAMs, runs it, and returns an
:class:`ExecutionResult` with both functional outputs and timing figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..isa.instructions import InstrClass
from ..isa.program import Program
from .config import MicroBlazeConfig, PAPER_CONFIG
from .cpu import ExecutionStats, MicroBlazeCPU
from .memory import BlockRAM, LocalMemoryBus
from .opb import OnChipPeripheralBus, Peripheral
from .trace import BranchObserver


@dataclass
class ExecutionResult:
    """Outcome of running one program on one MicroBlaze configuration."""

    program_name: str
    config: MicroBlazeConfig
    stats: ExecutionStats
    return_value: int
    data_image: bytes
    kernel_cycles: Optional[int] = None

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def instructions(self) -> int:
        return self.stats.instructions

    @property
    def time_seconds(self) -> float:
        """Wall-clock execution time at the configured clock frequency."""
        return self.stats.cycles / self.config.clock_hz

    @property
    def time_ms(self) -> float:
        return self.time_seconds * 1e3

    @property
    def cpi(self) -> float:
        """Average cycles per instruction."""
        if self.stats.instructions == 0:
            return 0.0
        return self.stats.cycles / self.stats.instructions

    def class_fraction(self, klass: InstrClass) -> float:
        """Fraction of executed instructions belonging to ``klass``."""
        if self.stats.instructions == 0:
            return 0.0
        return self.stats.class_counts.get(klass, 0) / self.stats.instructions

    def summary(self) -> str:
        return (
            f"{self.program_name}: {self.stats.instructions} instructions, "
            f"{self.stats.cycles} cycles, {self.time_ms:.3f} ms "
            f"@ {self.config.clock_mhz:g} MHz (CPI {self.cpi:.2f})"
        )


class MicroBlazeSystem:
    """A single-processor MicroBlaze system with local memories and an OPB.

    Parameters
    ----------
    config:
        Processor configuration; defaults to the paper's configuration
        (barrel shifter + multiplier, 85 MHz).
    peripherals:
        Peripherals to attach to the on-chip peripheral bus.  The warp
        processor attaches the WCLA here.
    engine:
        Execution engine for the CPU core, resolved against the engine
        registry (:mod:`repro.microblaze.engines`): ``"jit"`` (the
        default, source-generating superblock engine) or ``"interp"``
        (the reference interpreter) — plus anything registered with
        :func:`~repro.microblaze.engines.register_engine`.  The built-in
        engines are bit-exact with one another; unknown names raise
        :class:`~repro.microblaze.engines.UnknownEngineError` listing the
        registered engines.
    precise_fault_stats:
        Opt-in exact fault-path statistics for the block engines (see
        :class:`~repro.microblaze.cpu.MicroBlazeCPU`).
    """

    def __init__(
        self,
        config: MicroBlazeConfig = PAPER_CONFIG,
        peripherals: Sequence[Peripheral] = (),
        engine: Optional[str] = None,
        precise_fault_stats: bool = False,
    ):
        self.config = config
        self.instr_bram = BlockRAM(config.instr_bram_kb * 1024, name="instr_bram")
        self.data_bram = BlockRAM(config.data_bram_kb * 1024, name="data_bram")
        self.i_lmb = LocalMemoryBus(self.instr_bram, name="i_lmb")
        self.d_lmb = LocalMemoryBus(self.data_bram, name="d_lmb")
        self.opb = OnChipPeripheralBus()
        for peripheral in peripherals:
            self.opb.attach(peripheral)
        self.cpu = MicroBlazeCPU(config, self.instr_bram, self.data_bram, self.opb,
                                 engine=engine,
                                 precise_fault_stats=precise_fault_stats)
        self._loaded_program: Optional[Program] = None
        #: Program metadata recovered from a checkpoint restore (the image
        #: itself lives in the BRAMs); see :meth:`restore_checkpoint`.
        self._checkpoint_meta: Optional[Dict] = None

    # ----------------------------------------------------------------- loading
    def attach_peripheral(self, peripheral: Peripheral) -> None:
        self.opb.attach(peripheral)

    def load(self, program: Program) -> None:
        """Load ``program`` into the instruction and data block RAMs."""
        if program.text_size > self.instr_bram.size:
            raise ValueError(
                f"program text of {program.text_size} bytes does not fit in the "
                f"{self.instr_bram.size}-byte instruction BRAM"
            )
        if program.data_size > self.data_bram.size:
            raise ValueError(
                f"program data of {program.data_size} bytes does not fit in the "
                f"{self.data_bram.size}-byte data BRAM"
            )
        # Clear memories so that back-to-back runs are independent.
        self.instr_bram.storage[:] = b"\x00" * self.instr_bram.size
        self.data_bram.storage[:] = b"\x00" * self.data_bram.size
        self.instr_bram.store_words(0, program.text)
        self.data_bram.load_image(bytes(program.data))
        self.cpu.invalidate_decode_cache()
        self._loaded_program = program
        self._checkpoint_meta = None

    # ----------------------------------------------------------------- running
    def run(
        self,
        program: Optional[Program] = None,
        listeners: Sequence[BranchObserver] = (),
        max_instructions: int = 50_000_000,
    ) -> ExecutionResult:
        """Load (if given) and execute a program to completion.

        The program halts by branching to itself (``bri 0`` — the ``_halt``
        idiom emitted by the compiler's runtime epilogue).
        """
        if program is not None:
            self.load(program)
        if self._loaded_program is None:
            raise RuntimeError("no program loaded")
        loaded = self._loaded_program

        self.cpu.reset(entry_point=loaded.entry_point,
                       stack_pointer=self.data_bram.size - 4)
        attached = []
        try:
            for listener in listeners:
                self.cpu.add_listener(listener)
                attached.append(listener)
            stats = self.cpu.run(max_instructions=max_instructions)
        finally:
            for listener in attached:
                self.cpu.remove_listener(listener)

        return ExecutionResult(
            program_name=loaded.name,
            config=self.config,
            stats=stats,
            return_value=self.cpu.read_register(3),
            data_image=bytes(self.data_bram.storage[:max(loaded.data_size, 4096)]),
        )

    # ----------------------------------------------------------- checkpointing
    def start(self, program: Program) -> None:
        """Load ``program`` and reset the CPU without running it.

        Use together with :func:`repro.microblaze.checkpoint.run_slice` and
        :meth:`resume` for preemptible (sliced) execution; :meth:`run` is
        the load-reset-run convenience for uninterrupted runs.
        """
        self.load(program)
        self.cpu.reset(entry_point=program.entry_point,
                       stack_pointer=self.data_bram.size - 4)

    def checkpoint(self) -> bytes:
        """Snapshot the whole system to a compact, versioned bytes blob."""
        from .checkpoint import capture_checkpoint
        return capture_checkpoint(self)

    def restore_checkpoint(self, blob: bytes) -> None:
        """Restore a :meth:`checkpoint` blob bit-exactly into this system."""
        from .checkpoint import restore_checkpoint
        restore_checkpoint(self, blob)

    def resume(self, max_instructions: int = 50_000_000) -> ExecutionResult:
        """Continue executing from the current CPU state to completion.

        Unlike :meth:`run` this performs no reset, so it picks up exactly
        where a restored checkpoint (or a preempted slice) left off.  The
        returned result is indistinguishable from an uninterrupted
        :meth:`run` of the same program: statistics are cumulative across
        slices and the data-image window matches the original program's.
        """
        if self._loaded_program is not None:
            name = self._loaded_program.name
            data_size = self._loaded_program.data_size
        elif self._checkpoint_meta is not None:
            name = self._checkpoint_meta["name"]
            data_size = self._checkpoint_meta["data_size"]
        else:
            raise RuntimeError("nothing to resume: no program loaded and no "
                               "checkpoint restored")
        stats = self.cpu.run(max_instructions=max_instructions)
        return ExecutionResult(
            program_name=name,
            config=self.config,
            stats=stats,
            return_value=self.cpu.read_register(3),
            data_image=bytes(self.data_bram.storage[:max(data_size, 4096)]),
        )


def run_program(
    program: Program,
    config: MicroBlazeConfig = PAPER_CONFIG,
    listeners: Sequence[BranchObserver] = (),
    peripherals: Sequence[Peripheral] = (),
    max_instructions: int = 50_000_000,
    engine: Optional[str] = None,
    precise_fault_stats: bool = False,
) -> ExecutionResult:
    """Convenience helper: build a system, run ``program``, return the result."""
    system = MicroBlazeSystem(config=config, peripherals=peripherals, engine=engine,
                              precise_fault_stats=precise_fault_stats)
    return system.run(program, listeners=listeners, max_instructions=max_instructions)
