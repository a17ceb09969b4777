"""Fault-path statistics: block engines stop at the interpreter's fault point.

The block engines apply a superblock's statistics wholesale on entry.
When a runtime fault lands mid-block, the dispatch loop reads the
faulting line from the block's traceback frame, re-derives which
instruction it belongs to and takes back the statistics of the
instructions not yet executed.  These tests assert that a fault then
leaves *identical* statistics, registers, pc and imm-latch state to the
reference interpreter — in a fresh translation, in one served from the
translation table, on a later loop iteration — and that fault-free runs
stay bit-exact.
"""

from __future__ import annotations

import pytest

from repro.apps import build_suite
from repro.fuzz import observe
from repro.isa.assembler import assemble
from repro.microblaze import (
    MINIMAL_CONFIG,
    PAPER_CONFIG,
    IllegalInstruction,
    MemoryError_,
    MicroBlazeSystem,
    engine_names,
)
from repro.microblaze.engines.jit import _CODE_CACHE, codegen_stats

#: Every engine that translates blocks (everything but the reference).
BLOCK_ENGINES = tuple(name for name in engine_names() if name != "interp")

SUITE_NAMES = [benchmark.name for benchmark in build_suite(small=True)]

#: A misaligned word load (address 9) landing mid-superblock: three
#: completed instructions before it, live instructions after it, one
#: straight-line block ending in the halt branch.
MISALIGNED_MID_BLOCK = """
    addi r5, r0, 8
    addi r6, r0, 1
    add  r7, r5, r6        # r7 = 9: misaligned
    addi r8, r0, 3
    lw   r9, r7, r0        # faults here, mid-block
    addi r10, r0, 99       # must never execute
    bri  0
"""

#: The faulting load's address is computed through a fused imm prefix, so
#: the interpreter faults with the imm latch *set*.
MISALIGNED_AFTER_IMM = """
    addi r5, r0, 1
    imm  0
    lwi  r9, r5, 8         # address 9 via imm-fused immediate: faults
    addi r10, r0, 99
    bri  0
"""

#: A misaligned store in the delay slot of a taken branch: the interpreter
#: records neither the slot nor the branch.
MISALIGNED_IN_DELAY_SLOT = """
    addi r5, r0, 6
    addi r6, r0, 1
    brid 12                # taken, delay slot executes
    sw   r6, r5, r0        # misaligned store at 6: faults in the slot
    addi r7, r0, 1
    bri  0
"""

#: The loop's block runs cleanly once (translated, every word fetched by
#: both engines), then its load faults on the second iteration: address
#: 0 is aligned, address 2 is not.
FAULT_ON_SECOND_ITERATION = """
    addi r5, r0, 3
    addi r6, r0, 0
loop:
    addi r9, r9, 1
    lw   r7, r6, r0        # iteration 2: misaligned address 2
    addi r6, r6, 2
    addi r5, r5, -1
    bnei r5, loop
    bri  0
"""


def _run_to_fault(source, engine, config=PAPER_CONFIG,
                  exception=MemoryError_):
    program = assemble(source, name="faulty")
    system = MicroBlazeSystem(config=config, engine=engine)
    with pytest.raises(exception) as info:
        system.run(program)
    cpu = system.cpu
    return {
        "stats": cpu.stats,
        "registers": list(cpu.registers),
        "pc": cpu.pc,
        "imm_latch": cpu._imm_latch,
        "message": str(info.value),
    }


def _assert_fault_state_equal(reference, observed):
    assert observed["stats"] == reference["stats"]
    assert observed["registers"] == reference["registers"]
    assert observed["pc"] == reference["pc"]
    assert observed["imm_latch"] == reference["imm_latch"]
    assert observed["message"] == reference["message"]


class TestFaultPoint:
    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_misaligned_fault_mid_block_matches_interpreter(self, engine):
        """A misaligned access landing mid-block leaves
        interpreter-identical statistics, pc and imm latch."""
        interp = _run_to_fault(MISALIGNED_MID_BLOCK, "interp")
        observed = _run_to_fault(MISALIGNED_MID_BLOCK, engine)
        _assert_fault_state_equal(interp, observed)
        # The interpreter charged exactly the four completed instructions.
        assert interp["stats"].instructions == 4

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_fault_with_pending_imm_latch(self, engine):
        interp = _run_to_fault(MISALIGNED_AFTER_IMM, "interp")
        observed = _run_to_fault(MISALIGNED_AFTER_IMM, engine)
        _assert_fault_state_equal(interp, observed)
        # The imm prefix itself was recorded before the fault, and the
        # latch it set is still pending.
        assert interp["stats"].instructions == 2
        assert interp["imm_latch"] == 0

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_fault_in_delay_slot(self, engine):
        interp = _run_to_fault(MISALIGNED_IN_DELAY_SLOT, "interp")
        observed = _run_to_fault(MISALIGNED_IN_DELAY_SLOT, engine)
        _assert_fault_state_equal(interp, observed)
        # Neither the branch nor the slot is recorded by the interpreter,
        # and the pc points at the slot.
        assert interp["stats"].branches_taken == 0
        assert interp["pc"] == 12

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_missing_unit_fault(self, engine):
        """Compile-time-detected faults (absent hardware unit) also leave
        identical state."""
        source = """
            addi r5, r0, 3
            addi r6, r0, 4
            mul  r7, r5, r6       # no multiplier in MINIMAL_CONFIG
            bri  0
        """
        interp = _run_to_fault(source, "interp", config=MINIMAL_CONFIG,
                               exception=IllegalInstruction)
        observed = _run_to_fault(source, engine, config=MINIMAL_CONFIG,
                                 exception=IllegalInstruction)
        _assert_fault_state_equal(interp, observed)

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_fault_on_later_loop_iteration_matches_every_observation(
            self, engine):
        """A fault in a block that already ran leaves *every* observation
        identical, the instruction-fetch port included: finding the fault
        point touches neither the decode cache, the port counters nor
        the translation table."""
        program = assemble(FAULT_ON_SECOND_ITERATION, name="later")
        reference = observe(program, "interp")
        observed = observe(program, engine)
        assert reference.outcome == "fault"
        # The loop branch was taken once before the fault.
        assert reference.stats["branches_taken"] == 1
        assert observed.comparable() == reference.comparable()

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_fault_in_block_from_translation_table(self, engine):
        """A fresh system whose blocks come from the translation table
        (no translation of its own) stops at the same fault point."""
        interp = _run_to_fault(MISALIGNED_AFTER_IMM, "interp")
        _run_to_fault(MISALIGNED_AFTER_IMM, engine)
        table_before = len(_CODE_CACHE.translations)
        hits_before = codegen_stats()[engine]["cache_hits"]
        observed = _run_to_fault(MISALIGNED_AFTER_IMM, engine)
        assert codegen_stats()[engine]["cache_hits"] > hits_before
        assert len(_CODE_CACHE.translations) == table_before
        _assert_fault_state_equal(interp, observed)

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_fault_free_runs_stay_bit_exact(self, engine, name,
                                            compiled_small_programs):
        """Fault-point recovery must not perturb fault-free execution."""
        program = compiled_small_programs[name]
        reference = MicroBlazeSystem(config=PAPER_CONFIG,
                                     engine="interp").run(program)
        observed = MicroBlazeSystem(config=PAPER_CONFIG,
                                    engine=engine).run(program)
        assert observed.stats == reference.stats
        assert observed.return_value == reference.return_value
        assert observed.data_image == reference.data_image
