"""Fault-path statistics: the opt-in precise mode of the block engines.

The block engines apply a superblock's statistics wholesale, so a
runtime fault landing mid-block can leave statistics ahead of the
interpreter's by up to one block (a documented divergence since PR 1).
With ``precise_fault_stats=True`` the block compiler emits
per-instruction statistics code instead; these tests assert that a fault
landing mid-block then leaves *identical* statistics, registers, pc and
imm-latch state to the reference interpreter — and that fault-free runs
stay bit-exact in precise mode.
"""

from __future__ import annotations

import pytest

from repro.apps import build_suite
from repro.isa.assembler import assemble
from repro.microblaze import (
    MINIMAL_CONFIG,
    PAPER_CONFIG,
    IllegalInstruction,
    MemoryError_,
    MicroBlazeSystem,
    engine_names,
)

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


def _run_to_fault(source, engine, precise=False, config=PAPER_CONFIG,
                  exception=MemoryError_):
    program = assemble(source, name="faulty")
    system = MicroBlazeSystem(config=config, engine=engine,
                              precise_fault_stats=precise)
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


class TestPreciseFaultStats:
    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_misaligned_fault_mid_block_matches_interpreter(self, engine):
        """The differential test of the ISSUE: a misaligned access landing
        mid-block leaves interpreter-identical statistics in precise mode."""
        interp = _run_to_fault(MISALIGNED_MID_BLOCK, "interp")
        precise = _run_to_fault(MISALIGNED_MID_BLOCK, engine, precise=True)
        _assert_fault_state_equal(interp, precise)
        # The interpreter charged exactly the four completed instructions.
        assert interp["stats"].instructions == 4

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_default_mode_documents_the_divergence(self, engine):
        """Without the flag the wholesale-block accounting is visible (this
        is the documented PR 1 behaviour the flag closes)."""
        interp = _run_to_fault(MISALIGNED_MID_BLOCK, "interp")
        plain = _run_to_fault(MISALIGNED_MID_BLOCK, engine, precise=False)
        # Architectural state stays identical even without the flag...
        assert plain["registers"] == interp["registers"]
        assert plain["message"] == interp["message"]
        # ...but the wholesale statistics ran ahead of the fault point.
        assert plain["stats"].instructions > interp["stats"].instructions

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_fault_with_pending_imm_latch(self, engine):
        interp = _run_to_fault(MISALIGNED_AFTER_IMM, "interp")
        precise = _run_to_fault(MISALIGNED_AFTER_IMM, engine, precise=True)
        _assert_fault_state_equal(interp, precise)
        # The imm prefix itself was recorded before the fault.
        assert interp["stats"].instructions == 2

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_fault_in_delay_slot(self, engine):
        interp = _run_to_fault(MISALIGNED_IN_DELAY_SLOT, "interp")
        precise = _run_to_fault(MISALIGNED_IN_DELAY_SLOT, engine,
                                precise=True)
        _assert_fault_state_equal(interp, precise)
        # Neither the branch nor the slot is recorded by the interpreter.
        assert interp["stats"].branches_taken == 0

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    def test_missing_unit_fault(self, engine):
        """Compile-time-detected faults (absent hardware unit) also leave
        identical state in precise mode."""
        source = """
            addi r5, r0, 3
            addi r6, r0, 4
            mul  r7, r5, r6       # no multiplier in MINIMAL_CONFIG
            bri  0
        """
        interp = _run_to_fault(source, "interp", config=MINIMAL_CONFIG,
                               exception=IllegalInstruction)
        precise = _run_to_fault(source, engine, precise=True,
                                config=MINIMAL_CONFIG,
                                exception=IllegalInstruction)
        _assert_fault_state_equal(interp, precise)

    @pytest.mark.parametrize("engine", BLOCK_ENGINES)
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_fault_free_runs_stay_bit_exact(self, engine, name,
                                            compiled_small_programs):
        """Precise mode must not perturb fault-free execution at all."""
        program = compiled_small_programs[name]
        reference = MicroBlazeSystem(config=PAPER_CONFIG,
                                     engine="interp").run(program)
        precise = MicroBlazeSystem(config=PAPER_CONFIG, engine=engine,
                                   precise_fault_stats=True).run(program)
        assert precise.stats == reference.stats
        assert precise.return_value == reference.return_value
        assert precise.data_image == reference.data_image
